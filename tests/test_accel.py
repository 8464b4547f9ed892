"""The numeric kernels against results they do not compute themselves."""

import cmath
import math

import numpy as np
import pytest

from jacktorus import _accel, diffsystem
from jacktorus.compositions import enumerate_Z
from jacktorus.tableaux import Partition
from support import one_shot_phase_matrix_sum


def _phase(gamma, theta) -> complex:
    return cmath.exp(1j * sum(float(g) * t for g, t in zip(gamma, theta)))


def test_phase_matrix_sum_matches_explicit_sum():
    rng = np.random.default_rng(0)
    r = rng.integers(-4, 5, size=(15, 4))
    gammas = np.concatenate([r, -r[::-1]])
    mats = rng.normal(size=(30, 3, 3))
    theta = rng.uniform(-np.pi, np.pi, 4)
    expect = [
        [sum(_phase(g, theta) * complex(m[a, b]) for g, m in zip(gammas, mats)) for b in range(3)]
        for a in range(3)
    ]
    assert np.max(np.abs(_accel.phase_matrix_sum(gammas, mats, theta) - np.array(expect))) < 1e-12


def test_phase_matrix_sum_on_a_block_is_each_point_alone():
    # a grade-5 index set of N = 5 (1500 terms) against 5x5 matrices, as in a (3,2) scan
    rng = np.random.default_rng(2)
    gammas = np.array(enumerate_Z(5, 5), dtype=np.int64)
    mats = rng.normal(size=(len(gammas), 5, 5))
    thetas = rng.uniform(-np.pi, np.pi, (33, 5))
    block = _accel.phase_matrix_sum(gammas, mats, thetas)
    assert block.shape == (33, 5, 5)
    for theta, got in zip(thetas, block):
        assert np.array_equal(got, _accel.phase_matrix_sum(gammas, mats, theta))


U = 2.0**-53  # unit roundoff of float64


def _fsum_reference(gammas, mats, thetas):
    """sum_k exp(i <gamma_k, theta>) mats[k] at each row theta of thetas, every real and
    imaginary part a math.fsum of cmath.exp phases times the entries, and a bound on its
    distance from phase_matrix_sum's; both (P, d, d).

    The bound: the exact sum differs from
    - phase_matrix_sum's by at most u sum_k |a_k| (K + 6N + s_k), its docstring's bound;
    - this reference by at most u sum_k |a_k| (2 s_k + 5): each float gamma_kj theta_j is
      off by u |gamma_kj theta_j| and the fsum of the angle by u |angle| <= u s_k, so the
      angle by 2 u s_k; cmath.exp by 2u per part, under 3u in modulus; each product
      with a_k by u |a_k|, and the fsum of the products by u sum_k |a_k|;
    where u = 2**-53, a_k is the entry mats[k, a, b] and s_k = sum_j |gamma_kj theta_j|.
    Their sum, u sum_k |a_k| (K + 6N + 5 + 3 s_k), leaves out terms of order K u**2,
    which the factor 1 + 2**-20 covers along with the rounding of the bound itself.
    """
    k, n_vars = gammas.shape
    flat = mats.reshape(k, -1)
    ref = np.empty((len(thetas), flat.shape[1]), np.complex128)
    bound = np.empty((len(thetas), flat.shape[1]))
    for p, theta in enumerate(thetas.tolist()):
        terms = [[g * t for g, t in zip(gamma, theta)] for gamma in gammas.tolist()]
        phases = np.array([cmath.exp(1j * math.fsum(row)) for row in terms])
        ref[p].real = [math.fsum(col) for col in (phases.real[:, None] * flat).T.tolist()]
        ref[p].imag = [math.fsum(col) for col in (phases.imag[:, None] * flat).T.tolist()]
        weight = k + 6 * n_vars + 5 + 3 * np.abs(terms).sum(axis=1)
        bound[p] = (1 + 2**-20) * U * (np.abs(flat) * weight[:, None]).sum(axis=0)
    return ref.reshape((len(thetas),) + mats.shape[1:]), bound.reshape((len(thetas),) + mats.shape[1:])


def _within(got, ref, bound):
    return bool(np.all(np.abs(got.real - ref.real) <= bound) and np.all(np.abs(got.imag - ref.imag) <= bound))


def _fsum_case(n_vars, grade, dim):
    rng = np.random.default_rng(100 * n_vars + 10 * grade + dim)
    gammas = np.array(enumerate_Z(n_vars, grade), dtype=np.int64)
    mats = rng.normal(size=(len(gammas), dim, dim))
    thetas = rng.uniform(-np.pi, np.pi, (33, n_vars))
    return gammas, mats, thetas


# The name is from when the sum was bit for bit the complex one; it is kept so that these
# test ids stay.  The test now holds every entry to the bound derived in _fsum_reference.
@pytest.mark.parametrize("dim", [2, 5])
@pytest.mark.parametrize("n_vars, grade", [(5, n) for n in range(6)] + [(6, 3)])
def test_phase_matrix_sum_is_bit_identical_to_the_complex_sum(n_vars, grade, dim):
    gammas, mats, thetas = _fsum_case(n_vars, grade, dim)
    ref, bound = _fsum_reference(gammas, mats, thetas)
    for rows in (slice(0, 1), slice(0, 32), slice(0, 33)):
        got = _accel.phase_matrix_sum(gammas, mats, thetas[rows])
        assert got.shape == ref[rows].shape
        assert _within(got, ref[rows], bound[rows])
    assert _within(_accel.phase_matrix_sum(gammas, mats, thetas[0]), ref[0], bound[0])


@pytest.mark.parametrize("term", [0, 700, 1499])
def test_the_fsum_bound_sees_an_entry_moved_by_1e_9(term):
    # the largest case above: 1500 terms, where the bound is loosest
    gammas, mats, thetas = _fsum_case(5, 5, 5)
    ref, bound = _fsum_reference(gammas, mats, thetas)
    assert bound.max() < 1e-9 / 2**0.5  # a move of 1e-9 shifts the real or the imaginary part more
    moved = mats.copy()
    moved[term, 1, 3] += 1e-9
    assert _within(_accel.phase_matrix_sum(gammas, mats, thetas), ref, bound)
    for theta, r, b in zip(thetas, ref, bound):
        assert not _within(_accel.phase_matrix_sum(gammas, moved, theta), r, b)


def test_phase_matrix_sum_rejects_complex_matrices():
    gammas = np.array(enumerate_Z(3, 2), dtype=np.int64)
    mats = np.ones((len(gammas), 2, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match="real coefficient matrices"):
        _accel.phase_matrix_sum(gammas, mats, np.zeros(3))


@pytest.mark.parametrize("change", ["shuffled", "one-dropped"])
def test_phase_matrix_sum_rejects_gammas_not_symmetric_in_reverse_order(change):
    gammas = np.array(enumerate_Z(3, 2), dtype=np.int64)
    if change == "shuffled":  # closed under negation, but not in reverse order
        gammas = np.random.default_rng(0).permutation(gammas)
    else:
        gammas = gammas[1:]
    mats = np.ones((len(gammas), 2, 2))
    with pytest.raises(ValueError, match="closed under negation"):
        _accel.phase_matrix_sum(gammas, mats, np.zeros(3))


def _index_set(k: int, n_vars: int, rng) -> np.ndarray:
    """k random integer vectors closed under negation in reverse order, a zero middle row when k is odd."""
    r = rng.integers(-5, 6, size=(k // 2, n_vars))
    return np.concatenate([r, np.zeros((k % 2, n_vars), np.int64), -r[::-1]])


# the sum takes its GEMMs 128 terms at a time and computes the phases of the first h = (K + 1) // 2
# terms: K = 127, 128 and 129 end before, on and after a chunk boundary, and so do h = 127, 128 and
# 129 (K = 253, 255 and 257); 1500 is a grade-5 index set of N = 5
@pytest.mark.parametrize("k", [1, 3, 127, 128, 129, 253, 255, 257, 1500])
def test_phase_matrix_sum_is_the_one_shot_sum_bit_for_bit(k):
    rng = np.random.default_rng(k)
    gammas = _index_set(k, 4, rng)
    mats = rng.normal(size=(k, 3, 3))
    thetas = rng.uniform(-np.pi, np.pi, (33, 4))
    for points in (thetas[0], thetas[:1], thetas[:32], thetas):
        got = _accel.phase_matrix_sum(gammas, mats, points)
        assert np.array_equal(got, one_shot_phase_matrix_sum(gammas, mats, points))


def test_phase_matrix_sum_rejects_a_matrix_count_unlike_the_index_count():
    gammas = np.array(enumerate_Z(3, 2), dtype=np.int64)
    for count in (len(gammas) - 1, len(gammas) + 1):
        with pytest.raises(ValueError, match=f"got {count} matrices for {len(gammas)} indices"):
            _accel.phase_matrix_sum(gammas, np.ones((count, 2, 2)), np.zeros(3))


def test_phase_matrix_sum_of_an_empty_index_set_is_zero():
    gammas, mats = np.zeros((0, 3), np.int64), np.zeros((0, 2, 2))
    at_point = _accel.phase_matrix_sum(gammas, mats, np.zeros(3))
    on_block = _accel.phase_matrix_sum(gammas, mats, np.zeros((5, 3)))
    assert at_point.dtype == on_block.dtype == np.complex128
    assert np.array_equal(at_point, np.zeros((2, 2))) and np.array_equal(on_block, np.zeros((5, 2, 2)))


def test_phase_sum_matches_explicit_sum():
    rng = np.random.default_rng(1)
    gammas = rng.integers(-6, 7, size=(50, 3))
    theta = rng.uniform(-np.pi, np.pi, 3)
    expect = sum(_phase(g, theta) for g in gammas)
    assert abs(_accel.phase_sum(gammas, theta) - expect) < 1e-11


def test_eigvals_match_closed_form_2x2():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, d = rng.normal(size=2)
        b = complex(*rng.normal(size=2))
        h = np.array([[a, b], [b.conjugate(), d]])
        root = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        expect = [(a + d) / 2 - root, (a + d) / 2 + root]
        assert np.max(np.abs(_accel.jacobi_eigvals(h) - expect)) < 1e-12


def test_jacobi_backends_agree():
    # eigvalsh (LAPACK zheevd) against the general eigensolver (zgeev), a different algorithm
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    general = np.linalg.eigvals(h)
    assert np.max(np.abs(general.imag)) < 1e-11
    assert np.max(np.abs(_accel.jacobi_eigvals(h) - np.sort(general.real))) < 1e-11


@pytest.mark.parametrize("steps", [1, 256, 257, 5000])
def test_rk4_matches_closed_form_for_diagonal_field(steps):
    # diagonal pair matrices commute, so dL = kappa L conn integrates in closed form:
    # L_aa = prod_p ((x_i - x_j)(1) / (x_i - x_j)(0))^(kappa c_pa) * exp(-i kappa g sum dtheta)
    rng = np.random.default_rng(4)
    theta0 = np.array([0.0, 2.1, 4.2])
    theta1 = theta0 + np.array([0.3, -0.2, 0.25])
    c = rng.uniform(-1.5, 1.5, size=(3, 2))
    mats = np.array([np.diag(row) for row in c], dtype=np.complex128)
    pi, pj = np.array([0, 0, 1]), np.array([1, 2, 2])
    kappa, g = 0.25, 0.5
    x0, x1 = np.exp(1j * theta0), np.exp(1j * theta1)
    ratio = (x1[pi] - x1[pj]) / (x0[pi] - x0[pj])
    expect = np.diag(np.exp(kappa * (c.T @ np.log(ratio)) - 1j * kappa * g * (theta1 - theta0).sum()))
    got = _accel.rk4_transport(theta0, theta1, steps, kappa, g, mats, pi, pj)
    # fourth order: one step is off by about 4e-6 on this segment
    assert np.max(np.abs(got - expect)) < 1e-5 / steps**4 + 1e-13


def _rk4_reference(theta0, theta1, steps, kappa, g, mats, pi, pj):
    """Textbook RK4 on dL/dt = kappa L conn(t), one step at a time."""
    dtheta = theta1 - theta0

    def field(t, el):
        x = np.exp(1j * (theta0 + t * dtheta))
        dx = 1j * dtheta * x
        conn = sum(m * (dx[i] - dx[j]) / (x[i] - x[j]) for m, i, j in zip(mats, pi, pj))
        conn = conn - g * np.sum(dx / x) * np.eye(len(mats[0]))
        return kappa * el @ conn

    h = 1.0 / steps
    el = np.eye(len(mats[0]), dtype=np.complex128)
    for k in range(steps):
        t = k * h
        k1 = field(t, el)
        k2 = field(t + h / 2, el + h / 2 * k1)
        k3 = field(t + h / 2, el + h / 2 * k2)
        k4 = field(t + h, el + h * k3)
        el = el + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return el


@pytest.mark.parametrize("steps", [1, 256, 257, 700])
def test_rk4_matches_stepwise_reference_for_noncommuting_field(steps):
    # the propagators are multiplied in blocks and pairs; order matters here
    rng = np.random.default_rng(3)
    theta0 = rng.uniform(0, 2, 3)
    theta1 = theta0 + rng.uniform(0.1, 0.3, 3)
    mats = rng.normal(size=(3, 2, 2)).astype(np.complex128)
    pi, pj = np.array([0, 0, 1]), np.array([1, 2, 2])
    got = _accel.rk4_transport(theta0, theta1, steps, 0.25, 0.7, mats, pi, pj)
    expect = _rk4_reference(theta0, theta1, steps, 0.25, 0.7, mats, pi, pj)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_pair_quotient_is_the_half_sum_plus_the_cotangent_term():
    # (dx_i - dx_j)/(x_i - x_j) = i (dtheta_i + dtheta_j)/2 + (dtheta_i - dtheta_j)/2 cot((theta_i - theta_j)/2)
    rng = np.random.default_rng(6)
    theta = rng.uniform(-np.pi, np.pi, (2, 1000))
    dtheta = rng.normal(size=(2, 1000))
    x = np.exp(1j * theta)
    dx = 1j * dtheta * x
    quotient = (dx[0] - dx[1]) / (x[0] - x[1])
    half = (theta[0] - theta[1]) / 2
    identity = 1j * (dtheta[0] + dtheta[1]) / 2 + (dtheta[0] - dtheta[1]) / 2 * np.cos(half) / np.sin(half)
    assert np.all(np.abs(identity - quotient) <= 1e-12 * (1 + np.abs(quotient)))


@pytest.mark.parametrize("steps", [1, 256, 257, 700])
def test_rk4_matches_stepwise_reference_when_some_pairs_do_not_move(steps):
    # the (3,1) transpositions; pairs (1,2) and (3,4) keep their angle difference, so their
    # quotient is the constant i (dtheta_i + dtheta_j)/2: 0.25i for (1,2), 0 for (3,4).  The
    # angles are dyadic, so the differences are exact and those two pairs do not move at all.
    shape = Partition((3, 1))
    mats, pi, pj = diffsystem._pair_arrays(shape)
    assert not np.iscomplex(mats).any()
    theta0 = np.array([0.0, 1.5, 3.0, 4.5])
    theta1 = np.array([0.25, 1.75, 3.0, 4.5])
    dtheta = theta1 - theta0
    assert np.flatnonzero(dtheta[pi] == dtheta[pj]).tolist() == [0, 5]
    kappa, g = 0.25, float(diffsystem.gamma_const(shape))
    got = _accel.rk4_transport(theta0, theta1, steps, kappa, g, mats, pi, pj)
    expect = _rk4_reference(theta0, theta1, steps, kappa, g, mats, pi, pj)
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("steps", [1, 257])
def test_rk4_keeps_the_imaginary_part_of_complex_pair_matrices(steps):
    rng = np.random.default_rng(7)
    theta0 = rng.uniform(0, 2, 3)
    theta1 = theta0 + np.array([0.25, 0.1, 0.1])
    mats = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    pi, pj = np.array([0, 0, 1]), np.array([1, 2, 2])
    got = _accel.rk4_transport(theta0, theta1, steps, 0.25, 0.7, mats, pi, pj)
    expect = _rk4_reference(theta0, theta1, steps, 0.25, 0.7, mats, pi, pj)
    assert np.max(np.abs(got - expect)) < 1e-12
