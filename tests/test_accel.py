"""The numeric kernels against results they do not compute themselves."""

import cmath

import numpy as np
import pytest

from jacktorus import _accel


def _phase(gamma, theta) -> complex:
    return cmath.exp(1j * sum(float(g) * t for g, t in zip(gamma, theta)))


def test_phase_matrix_sum_matches_explicit_sum():
    rng = np.random.default_rng(0)
    gammas = rng.integers(-4, 5, size=(30, 4))
    mats = rng.normal(size=(30, 3, 3)) + 1j * rng.normal(size=(30, 3, 3))
    theta = rng.uniform(-np.pi, np.pi, 4)
    expect = [
        [sum(_phase(g, theta) * complex(m[a, b]) for g, m in zip(gammas, mats)) for b in range(3)]
        for a in range(3)
    ]
    assert np.max(np.abs(_accel.phase_matrix_sum(gammas, mats, theta) - np.array(expect))) < 1e-12


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
