import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from jacktorus import _accel, kernels
from jacktorus._rng import DefaultRng
from jacktorus.coeffs import CoeffStore
from jacktorus.errors import PoleExcluded
from jacktorus.kernels import (
    FloatCoeffs,
    cesaro_scalar,
    cesaro_weight,
    complete_symmetric,
    h_matrix,
    kernel_eval,
    min_eigenvalue,
    psd_report,
    sigma_identity_residual,
)
from jacktorus.compositions import enumerate_Z
from jacktorus.scalars import default_kappa, make_kappa
from jacktorus.tableaux import Partition, Scaled
from support import grade_stack, valid_shapes


def permuted(x: np.ndarray, w) -> np.ndarray:
    """The angles of xw, where (xw)_i = x_{w(i)}."""
    return x[[wi - 1 for wi in w]]


def scaled(x: np.ndarray, phase: float) -> np.ndarray:
    """The angles of x times the scalar exp(i phase)."""
    return x + phase


@pytest.fixture(scope="module")
def fc21():
    shape = Partition((2, 1))
    store = CoeffStore(shape, make_kappa(1, 5, (2, 1))).ensure_grade(6)
    return FloatCoeffs(store)


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
    x = np.asarray([0.4, 1.0, -2.0])
    assert np.allclose(h_matrix(0, x, fc21), np.eye(2))
    assert np.allclose(kernel_eval(0, x, fc21), np.eye(2))


def test_h_hermitian_and_covariant(fc21):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-np.pi, np.pi, 3)
        for n in (1, 2, 3):
            h = h_matrix(n, x, fc21)
            assert np.max(np.abs(h - h.conj().T)) < 1e-10
            w = tuple(rng.permutation(3) + 1)
            hw = h_matrix(n, permuted(x, w), fc21)
            tw = fc21.rep_float(w)
            assert np.max(np.abs(hw - tw.T @ h @ tw)) < 1e-10


def test_kernel_psd_small(fc21):
    for x in kernels._sample_angles(3, 25, 123):
        for n in (1, 3, 5):
            k = kernel_eval(n, x, fc21)
            assert min_eigenvalue(k) >= -1e-9


def test_kernel_homogeneity(fc21):
    x = np.asarray([0.2, -0.9, 2.4])
    for n in (2, 4):
        a = kernel_eval(n, x, fc21)
        b = kernel_eval(n, scaled(x, 0.7), fc21)
        assert np.max(np.abs(a - b)) < 1e-10


def test_kernel_commutes_at_symmetric_point(fc21):
    # x0 = (1, w, w^2): K_n(x0) commutes with the long cycle
    x0 = np.asarray([0, 2 * np.pi / 3, 4 * np.pi / 3])
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
        x = np.zeros(N)
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
            x = rng.uniform(-np.pi, np.pi, N)
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
    rep = psd_report(store, [1, 2, 3], samples=10, seed=9)
    assert np.isfinite(rep.worst["min_eigenvalue"])


@pytest.mark.parametrize("parts", [s.parts for n in range(3, 6) for s in valid_shapes(n)])
def test_grade_arrays_match_the_exact_coefficients(parts):
    # every index of every grade <= 3, canonical, orbit and sign-reversed orbit,
    # against the index-by-index exact conjugation
    store = CoeffStore(Partition(parts), default_kappa(parts))
    fc = FloatCoeffs(store)
    for n in range(4):
        gammas, mats = fc.grade_arrays(n)
        assert [tuple(g) for g in gammas] == enumerate_Z(store.N, n)
        for g, mat in zip(gammas, mats):
            assert np.max(np.abs(mat - store.ortho_coeff_float(g))) < 1e-12, (parts, tuple(g))


@pytest.mark.parametrize(
    "parts", [s.parts for n in range(3, 6) for s in valid_shapes(n)], ids=lambda p: ",".join(map(str, p))
)
def test_grade_arrays_are_the_stack_built_one_index_at_a_time(parts):
    # every index of every grade <= 3, bit for bit the conjugation one index at a time
    store = CoeffStore(Partition(parts), default_kappa(parts))
    fc = FloatCoeffs(store)
    for n in range(4):
        assert np.array_equal(fc.grade_arrays(n)[1], grade_stack(store, n)), (parts, n)


def test_psd_report_matches_a_scan_per_order(fc21):
    # the parent formulation: orders outer, points inner, one permutation drawn per (order, point)
    store, orders, samples, seed = fc21.store, [1, 3, 4], 6, 5
    points = kernels._sample_angles(store.N, samples, seed)
    rng = np.random.default_rng(seed + 1)
    herm = cov = 0.0
    worst = {}
    for n in orders:
        worst[n] = min(min_eigenvalue(kernel_eval(n, x, fc21)) for x in points)
        for x in points:
            k = kernel_eval(n, x, fc21)
            herm = max(herm, float(np.max(np.abs(k - k.conj().T))))
            w = tuple(rng.permutation(store.N) + 1)
            tw = fc21.rep_float(w)
            resid = h_matrix(n, permuted(x, w), fc21) - tw.T @ h_matrix(n, x, fc21) @ tw
            cov = max(cov, float(np.max(np.abs(resid))))
    rep = psd_report(store, orders, samples, seed)
    assert list(rep.min_eigenvalues) == orders
    for n in orders:
        assert abs(rep.min_eigenvalues[n] - worst[n]) < 1e-12
    assert abs(rep.hermiticity_residual - herm) < 1e-15
    assert rep.covariance_residual == cov


# numpy's default_rng is the oracle: the stdlib stream must reproduce it at small, word-sized,
# multi-word and pool-overflowing (more than four 32-bit words) seeds
STREAM_SEEDS = [*range(40), 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 11, 3**150]


@pytest.mark.parametrize("n_vars", [1, 2, 5, 6, 92])
def test_sample_angles_are_numpys_uniform_draws(n_vars):
    for seed in STREAM_SEEDS:
        got = kernels._sample_angles(n_vars, 9, seed)
        assert got.dtype == np.float64 and got.shape == (9, n_vars)
        assert np.array_equal(got, np.random.default_rng(seed).uniform(-np.pi, np.pi, (9, n_vars))), seed


@pytest.mark.parametrize("n", [1, 2, 5, 6, 92])
def test_permutations_are_numpys_permutation_draws(n):
    # two calls on one generator: the high half of a split word carries over between them
    for seed in STREAM_SEEDS:
        ours = DefaultRng(seed + 1)
        got = ours.permutations(n, 3) + ours.permutations(n, 4)
        theirs = np.random.default_rng(seed + 1)
        assert got == [theirs.permutation(n).tolist() for _ in range(7)], seed


def test_permutations_match_numpy_at_every_size_to_300():
    ours, theirs = DefaultRng(5), np.random.default_rng(5)
    for n in range(1, 301):
        assert ours.permutations(n, 2) == [theirs.permutation(n).tolist() for _ in range(2)], n


def test_sampling_rejects_a_negative_seed(fc21):
    # as numpy's SeedSequence does
    with pytest.raises(ValueError, match="non-negative"):
        kernels._sample_angles(3, 4, -1)
    with pytest.raises(ValueError, match="non-negative"):
        psd_report(fc21.store, [1], 4, seed=-1)


@pytest.mark.parametrize("orders, samples", [([], 5), ([1, 2], 0)], ids=["no-orders", "no-samples"])
def test_psd_report_rejects_an_empty_scan(fc21, orders, samples):
    with pytest.raises(ValueError, match="psd_report needs at least one"):
        psd_report(fc21.store, orders, samples, seed=1)


def test_hermiticity_residual_sees_a_wrong_stored_matrix():
    # A_{-gamma} is built from its own sorted representative, not as A_gamma^T,
    # so the Hermiticity gate checks the stored matrices against each other
    shape = Partition((2, 1))
    store = CoeffStore(shape, make_kappa(1, 5, (2, 1))).ensure_grade(2)
    good = psd_report(store, [2], samples=4, seed=1)
    # the same +1/100 on every entry, written on the carrier: num/den + 1/100
    mat = store.grades[2][(2, -1, -1)]
    store.grades[2][(2, -1, -1)] = Scaled(mat.num * 100 + mat.den, mat.den * 100).reduced()
    bad = psd_report(store, [2], samples=4, seed=1)
    assert good.hermiticity_residual < 1e-10 < bad.hermiticity_residual


@pytest.mark.parametrize("orders", [[-1], [-1, 2], [2, 2], [1, 3, 1]], ids=str)
def test_psd_report_rejects_a_negative_or_repeated_order(fc21, orders):
    with pytest.raises(ValueError, match="distinct nonnegative orders"):
        psd_report(fc21.store, orders, 4, seed=1)


def _scan_per_order(fc, orders, samples, seed):
    """The loop of test_psd_report_matches_a_scan_per_order, one point at a time:
    min eigenvalue per order, Hermiticity and covariance residuals."""
    points = kernels._sample_angles(fc.N, samples, seed)
    rng = np.random.default_rng(seed + 1)
    herm = cov = 0.0
    worst = {}
    for n in orders:
        worst[n] = min(min_eigenvalue(kernel_eval(n, x, fc)) for x in points)
        for x in points:
            k = kernel_eval(n, x, fc)
            herm = max(herm, float(np.max(np.abs(k - k.conj().T))))
            w = tuple(rng.permutation(fc.N) + 1)
            tw = fc.rep_float(w)
            resid = h_matrix(n, permuted(x, w), fc) - tw.T @ h_matrix(n, x, fc) @ tw
            cov = max(cov, float(np.max(np.abs(resid))))
    return worst, herm, cov


@pytest.fixture(scope="module")
def fc32():
    store = CoeffStore(Partition((3, 2)), make_kappa(1, 5, (3, 2))).ensure_grade(5)
    return FloatCoeffs(store)


@pytest.mark.parametrize("samples", [1, kernels._BLOCK - 1, kernels._BLOCK, kernels._BLOCK + 1])
@pytest.mark.parametrize("fc_name, orders", [("fc21", [1, 3, 4]), ("fc32", [0, 2, 5])], ids=["2,1", "3,2"])
def test_block_scan_is_bit_identical_to_a_scan_point_by_point(request, fc_name, orders, samples):
    fc = request.getfixturevalue(fc_name)
    worst, herm, cov = _scan_per_order(fc, orders, samples, seed=7)
    rep = psd_report(fc.store, orders, samples, seed=7)
    assert rep.min_eigenvalues == worst
    assert rep.hermiticity_residual == herm
    assert rep.covariance_residual == cov
    assert rep.worst == {"min_eigenvalue": min(worst.values()), "hermiticity": herm, "covariance": cov}


@pytest.mark.parametrize("block", [1, 7, 64])
def test_psd_report_does_not_depend_on_the_block_size(fc32, monkeypatch, block):
    expect = psd_report(fc32.store, [0, 2, 5], 70, seed=3).to_dict()
    monkeypatch.setattr(kernels, "_BLOCK", block)
    assert psd_report(fc32.store, [0, 2, 5], 70, seed=3).to_dict() == expect


def test_psd_report_memory_is_flat_in_the_sample_count():
    # the scan holds one block of points at a time, so eight blocks of samples
    # peak about where one block does
    store = CoeffStore(Partition((3, 1)), make_kappa(1, 5, (3, 1))).ensure_grade(4)
    orders = [1, 2, 3, 4]
    psd_report(store, orders, 1, seed=2)  # one-time caches and lazy imports

    def peak(samples):
        tracemalloc.start()
        try:
            psd_report(store, orders, samples, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(kernels._BLOCK), peak(8 * kernels._BLOCK)
    assert eight <= 1.5 * one, (one, eight)


def test_grade_arrays_memory_is_flat_in_the_grade_size():
    # (3,2,1) at grades 2 and 5: 240 and 7002 indices of 16x16 matrices.  Beyond its result a
    # grade holds the table of the distinct tau(w) (at most 6! of them, 1.5 MB), three stacks of
    # one 128-index chunk (0.8 MB) and its index lists (about 0.1 kB an index, 0.7 MB at grade 5)
    store = CoeffStore(Partition((3, 2, 1)), make_kappa(1, 7, (3, 2, 1))).ensure_grade(5)
    fc = FloatCoeffs(store)
    for n in (2, 5):
        fc.grade_arrays(n)  # converts every tau(w) the grades use

    def excess(n):
        del fc._grades[n]
        tracemalloc.start()
        try:
            gammas, mats = fc.grade_arrays(n)
            return tracemalloc.get_traced_memory()[1] - gammas.nbytes - mats.nbytes
        finally:
            tracemalloc.stop()

    assert len(fc.grade_arrays(5)[0]) >= 3 * len(fc.grade_arrays(2)[0])
    assert max(excess(2), excess(5)) <= 3.5e6, (excess(2), excess(5))


def test_phase_matrix_sum_memory_is_flat_in_the_index_count():
    # the half phases of 32 points, (32, h) complex, are the one array that grows with K; the
    # power table, the (2, 32, 128) operand and the sums of 32 points take the fixed 0.5 MB
    gammas = np.array(enumerate_Z(6, 5), dtype=np.int64)
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(len(gammas), 2, 2))
    thetas = rng.uniform(-np.pi, np.pi, (32, 6))
    half = 32 * ((len(gammas) + 1) // 2) * 16
    _accel.phase_matrix_sum(gammas, mats, thetas)
    tracemalloc.start()
    try:
        _accel.phase_matrix_sum(gammas, mats, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * half + 0.5e6, (peak, half)


WINDOW_SHAPES = [s.parts for n in range(3, 6) for s in valid_shapes(n)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_positivity_across_the_window(data):
    """Every shape with N <= 5, kappa = p/q strictly inside (-1/h, 1/h), orders 1..4."""
    parts = data.draw(st.sampled_from(WINDOW_SHAPES), label="shape")
    h = Partition(parts).max_hook
    q = data.draw(st.integers(h + 1, 100 * h), label="q")
    p = data.draw(st.integers(-((q - 1) // h), (q - 1) // h), label="p")  # |p| h < q
    try:
        kap = make_kappa(p, q, parts)
    except PoleExcluded:
        reject()
    assert kap.psd_range
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rep = psd_report(CoeffStore(Partition(parts), kap), range(1, 5), 30, seed)
    assert rep.worst["min_eigenvalue"] >= -1e-9, rep.worst
