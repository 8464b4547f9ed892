from fractions import Fraction

import numpy as np
import pytest

from jacktorus.coeffs import CoeffStore
from jacktorus.kernels import (
    FloatCoeffs,
    TorusPoint,
    cesaro_scalar,
    cesaro_weight,
    complete_symmetric,
    h_matrix,
    kernel_eval,
    min_eigenvalue,
    psd_report,
    sample_points,
    sigma_identity_residual,
)
from jacktorus.scalars import make_kappa
from jacktorus.tableaux import Partition


@pytest.fixture(scope="module")
def fc21():
    shape = Partition((2, 1))
    store = CoeffStore(shape, make_kappa(1, 5, (2, 1))).ensure_grade(6)
    return FloatCoeffs(store)


def test_torus_point_validation():
    TorusPoint([1j, -1, 1])
    with pytest.raises(ValueError):
        TorusPoint([0.5, 1, 1])


def test_cesaro_weight_endpoints():
    assert cesaro_weight(5, 0, 2) == 1
    assert cesaro_weight(5, 6, 2) == 0
    assert cesaro_weight(3, 3, 1) > 0


def test_cesaro_weight_n3_product_form():
    for n in (4, 9):
        for m in range(n + 1):
            expect = Fraction(n + 1 - m, n + 1) * Fraction(n + 2 - m, n + 2)
            assert cesaro_weight(n, m, 2) == expect


def test_cesaro_weight_limit():
    # fixed m: weight tends to 1; deviation scales like m*delta/n
    assert abs(float(cesaro_weight(10**6, 1, 1)) - 1.0) < 1e-6
    assert abs(float(cesaro_weight(10**8, 5, 3)) - 1.0) < 1e-6
    assert abs(float(cesaro_weight(10**6, 5, 3)) - 1.0) < 2e-5


def test_h0_is_identity(fc21):
    x = TorusPoint.from_angles([0.4, 1.0, -2.0])
    assert np.allclose(h_matrix(0, x, fc21), np.eye(2))
    assert np.allclose(kernel_eval(0, x, fc21), np.eye(2))


def test_h_hermitian_and_covariant(fc21):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = TorusPoint.from_angles(rng.uniform(-np.pi, np.pi, 3))
        for n in (1, 2, 3):
            h = h_matrix(n, x, fc21)
            assert np.max(np.abs(h - h.conj().T)) < 1e-10
            w = tuple(rng.permutation(3) + 1)
            hw = h_matrix(n, x.permuted(w), fc21)
            tw = fc21.rep_float(w)
            assert np.max(np.abs(hw - tw.T @ h @ tw)) < 1e-10


def test_kernel_psd_small(fc21):
    for x in sample_points(3, 25, 123):
        for n in (1, 3, 5):
            k = kernel_eval(n, x, fc21)
            assert min_eigenvalue(k) >= -1e-9


def test_kernel_homogeneity(fc21):
    x = TorusPoint.from_angles([0.2, -0.9, 2.4])
    for n in (2, 4):
        a = kernel_eval(n, x, fc21)
        b = kernel_eval(n, x.scaled(0.7), fc21)
        assert np.max(np.abs(a - b)) < 1e-10


def test_kernel_commutes_at_symmetric_point(fc21):
    # x0 = (1, w, w^2): K_n(x0) commutes with the long cycle
    x0 = TorusPoint.from_angles([0, 2 * np.pi / 3, 4 * np.pi / 3])
    tw = fc21.rep_float((2, 3, 1))
    for n in (1, 2, 4):
        k = kernel_eval(n, x0, fc21)
        assert np.max(np.abs(k @ tw - tw @ k)) < 1e-10


def test_jacobi_matches_numpy():
    # Hermitian matrices built with a known spectrum: U diag(lam) U^* for a random unitary U
    rng = np.random.default_rng(17)
    from jacktorus import _accel

    for dim in (2, 3, 5):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(a)
        lam = np.sort(rng.normal(size=dim))
        h = u @ np.diag(lam) @ u.conj().T
        assert np.max(np.abs(_accel.jacobi_eigvals(h) - lam)) < 1e-10
        assert abs(min_eigenvalue(h) - lam[0]) < 1e-10


def test_sigma_identity_at_one():
    for N in (3, 4):
        x = TorusPoint.from_angles([0.0] * N)
        for n in (0, 3, 5):
            assert sigma_identity_residual(n, x) < 1e-9
        # both sides equal the squared composition count at x = 1
        n = 4
        count = 1.0
        for i in range(n):
            count *= (N + i) / (i + 1)
        assert abs(complete_symmetric(n, x) - count) < 1e-9


def test_sigma_identity_random():
    rng = np.random.default_rng(5)
    for N in (3, 4):
        for _ in range(10):
            x = TorusPoint.from_angles(rng.uniform(-np.pi, np.pi, N))
            for n in range(7):
                assert sigma_identity_residual(n, x) < 1e-10
                assert cesaro_scalar(n, x).real >= -1e-10


def test_psd_report_structure(fc21):
    rep = psd_report(fc21.store, [1, 2], samples=8, seed=3)
    doc = rep.to_dict()
    assert doc["seed"] == 3 and doc["orders"] == [1, 2]
    assert doc["worst"]["min_eigenvalue"] >= -1e-9
    # determinism under a fixed seed
    rep2 = psd_report(fc21.store, [1, 2], samples=8, seed=3)
    assert rep.to_dict() == rep2.to_dict()


def test_report_sensitive_outside_window():
    # |kappa| above 1/h is reported (not asserted) as a sensitivity probe;
    # just check the scan runs and returns finite numbers there
    shape = Partition((2, 1))
    store = CoeffStore(shape, make_kappa(2, 5, (2, 1)))  # 2/5 > 1/3
    rep = psd_report(store, [1, 2, 3], samples=10, seed=9, check_covariance=False)
    assert np.isfinite(rep.worst["min_eigenvalue"])
