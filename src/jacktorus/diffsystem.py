"""The first-order connection satisfied by the absolutely continuous density.

The connection matrices M_i(x) = sum_{j != i} sigma(i,j)/(x_i - x_j)
- (g/x_i) I are built exactly at rational regular points, where both the
Frobenius integrability residual and the Euler identity sum_i x_i M_i = 0
vanish identically.  Numeric transport of a fundamental solution along
angle-space paths is available as an optional check of flatness and
degree-zero homogeneity.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _accel, perms, tableaux
from .errors import PathNearSingular, SingularPoint, VerificationFailed
from .scalars import KappaParam
from .tableaux import Partition, Scaled, total

# smallest pairwise coordinate separation |x_i - x_j| a transport path may reach
CLEARANCE = 0.05


def gamma_const(shape: Partition) -> Fraction:
    """Homogenization constant: average content of the diagram.

    Computed two ways (row form and content-sum form) and checked equal.
    """
    n = shape.N
    row_form = sum(
        Fraction(p * (p - 2 * (i + 1) + 1)) for i, p in enumerate(shape.parts)
    ) / (2 * n)
    content_form = Fraction(sum(tableaux.t_zero(shape).content), n)
    if row_form != content_form:
        raise VerificationFailed(f"row form {row_form} differs from content form {content_form}")
    return row_form


def check_regular(x) -> tuple:
    x = tuple(x)
    n = len(x)
    for i in range(n):
        if x[i] == 0:
            raise SingularPoint(f"coordinate {i + 1} vanishes")
        for j in range(i + 1, n):
            if x[i] == x[j]:
                raise SingularPoint(f"coordinates {i + 1} and {j + 1} coincide")
    return x


def connection(i: int, x, shape: Partition) -> Scaled:
    """M_i(x) on the tableau basis, exactly; the coordinates are taken as rationals."""
    x = tuple(Fraction(c) for c in check_regular(x))
    ident = tableaux.rep_matrix(shape, perms.identity(len(x)))
    terms = [ident * (-gamma_const(shape) / x[i - 1])]
    for j in range(1, len(x) + 1):
        if j != i:
            terms.append(tableaux.transposition_matrix(shape, i, j) * (1 / (x[i - 1] - x[j - 1])))
    return total(terms)


def euler_residual(x, shape: Partition) -> Scaled:
    """sum_i x_i M_i(x), reduced; identically zero because the transpositions sum to the content sum."""
    x = check_regular(x)
    return total([connection(i, x, shape) * Fraction(xi) for i, xi in enumerate(x, 1)]).reduced()


def integrability_residual(i: int, j: int, x, shape: Partition, kappa: KappaParam) -> Scaled:
    """d_i M_j - d_j M_i - kappa (M_j M_i - M_i M_j), reduced; exactly zero at regular points.

    For i != j the only x_i-dependent term of M_j is sigma(i,j)/(x_j - x_i),
    whose x_i-derivative sigma(i,j)/(x_i - x_j)^2 is also d_j M_i, so the
    derivative difference is the zero matrix and the commutator term, which
    is what this returns, carries the full content of the flatness condition.
    """
    mi = connection(i, x, shape)
    mj = connection(j, x, shape)
    return (total([mi @ mj, mj @ mi * -1]) * kappa.value).reduced()


def _pair_arrays(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = shape.N
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mats = np.empty((len(pairs), shape.dim, shape.dim), dtype=np.complex128)
    for k, (i, j) in enumerate(pairs):
        mats[k] = tableaux.transposition_matrix(shape, i, j).floats()
    pi = np.array([p[0] - 1 for p in pairs], dtype=np.int64)
    pj = np.array([p[1] - 1 for p in pairs], dtype=np.int64)
    return mats, pi, pj


def integrate_path(theta_start, theta_end, steps: int, shape: Partition, kappa: KappaParam):
    """Transport L (from the identity) along the straight angle-space segment.

    Fourth-order fixed-step integration of dL = kappa L sum_i M_i dx_i.
    Rejects paths whose minimum pairwise coordinate separation, sampled at
    up to 513 evenly spaced points, drops below CLEARANCE.
    """
    theta_start = np.asarray(theta_start, dtype=np.float64)
    theta_end = np.asarray(theta_end, dtype=np.float64)
    mats, pi, pj = _pair_arrays(shape)
    t = np.linspace(0.0, 1.0, min(steps, 512) + 1)[:, None]
    x = np.exp(1j * ((1 - t) * theta_start + t * theta_end))
    sep = np.abs(x[:, pi] - x[:, pj]).min(axis=1)
    close = np.flatnonzero(sep < CLEARANCE)
    if close.size:
        raise PathNearSingular(f"min separation {sep[close[0]]:.4f} < clearance {CLEARANCE}")
    if steps == 0 or np.array_equal(theta_start, theta_end):
        return np.eye(shape.dim, dtype=np.complex128)
    return _accel.rk4_transport(
        theta_start,
        theta_end,
        steps,
        float(kappa.value),
        float(gamma_const(shape)),
        mats,
        pi,
        pj,
    )


def integrate_loop(waypoints, steps: int, shape: Partition, kappa: KappaParam):
    """Chain transport along a closed polyline of angle vectors."""
    total = np.eye(shape.dim, dtype=np.complex128)
    legs = list(waypoints)
    per_leg = max(1, steps // max(1, len(legs) - 1))
    for a, b in zip(legs, legs[1:]):
        total = total @ integrate_path(a, b, per_leg, shape, kappa)
    return total
