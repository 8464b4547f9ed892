import pytest

from jacktorus.coeffs import CoeffStore
from jacktorus.scalars import make_kappa
from jacktorus.tableaux import Partition
from jacktorus.torusform import FormContext
from jacktorus.ybgraph import NsjpGraph


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
def graph21(shape21, kappa21):
    return NsjpGraph(shape21, kappa21)


@pytest.fixture(scope="session")
def graph31(shape31, kappa31):
    return NsjpGraph(shape31, kappa31)


@pytest.fixture(scope="session")
def store21(shape21, kappa21):
    return CoeffStore(shape21, kappa21).ensure_grade(3)


@pytest.fixture(scope="session")
def store31(shape31, kappa31):
    return CoeffStore(shape31, kappa31).ensure_grade(2)


@pytest.fixture(scope="session")
def ctx21(store21):
    return FormContext(store21)


@pytest.fixture(scope="session")
def ctx31(store31):
    return FormContext(store31)


@pytest.fixture
def perturb_gram_product(monkeypatch):
    """Install a fault in torusform's exact products: perturb(out) edits each block's C^T (P C) in place."""
    from jacktorus import torusform

    real = torusform.int_matmul
    last = [None]

    def install(perturb):
        def faulty(a, b):
            out = real(a, b)
            if b is last[0]:  # the outer product takes the inner P C as its right operand
                perturb(out)
            last[0] = out
            return out

        monkeypatch.setattr(torusform, "int_matmul", faulty)

    return install
