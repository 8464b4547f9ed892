import numpy as np
import pytest
from hypothesis import Phase, settings

from jacktorus.coeffs import CoeffStore
from jacktorus.scalars import make_kappa
from jacktorus.tableaux import Partition
from jacktorus.torusform import FormContext
from jacktorus.ybgraph import NsjpGraph

# tests/mutants.py runs its tests under this profile: the examples are the same on every run, a mutant is
# killed by the first failing one, so nothing is shrunk, and no example database is read or written
settings.register_profile("mutants", derandomize=True, phases=[Phase.explicit, Phase.generate], database=None)


@pytest.fixture(scope="session")
def shape21():
    return Partition((2, 1))


@pytest.fixture(scope="session")
def shape31():
    return Partition((3, 1))


@pytest.fixture(scope="session")
def kappa21():
    return make_kappa(1, 4, (2, 1))


@pytest.fixture(scope="session")
def kappa31():
    return make_kappa(1, 4, (3, 1))


@pytest.fixture(scope="session")
def graph21(kappa21):
    return NsjpGraph(kappa21)


@pytest.fixture(scope="session")
def graph31(kappa31):
    return NsjpGraph(kappa31)


@pytest.fixture(scope="session")
def store21(kappa21):
    return CoeffStore(kappa21).ensure_grade(3)


@pytest.fixture(scope="session")
def store31(kappa31):
    return CoeffStore(kappa31).ensure_grade(2)


@pytest.fixture(scope="session")
def ctx21(store21):
    return FormContext(store21)


@pytest.fixture(scope="session")
def ctx31(store31):
    return FormContext(store31)


@pytest.fixture
def perturb_gram_product(monkeypatch):
    """Install a fault in torusform's Gram products: perturb(out) edits a zero matrix of each block's size,
    which is then added to the block's C^T (P C) wherever gram multiplies a vector by it."""
    from jacktorus import torusform

    real = torusform._gram_times

    def install(perturb):
        def faulty(cmat, pmat, x):
            fault = np.zeros((cmat.shape[1],) * 2, dtype=object)
            perturb(fault)
            return real(cmat, pmat, x) + fault @ x

        monkeypatch.setattr(torusform, "_gram_times", faulty)

    return install
