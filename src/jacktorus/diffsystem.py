"""The first-order connection satisfied by the absolutely continuous density.

The connection matrices M_i(x) = sum_{j != i} sigma(i,j)/(x_i - x_j)
- (g/x_i) I are built exactly at rational regular points, where both the
Euler identity sum_i x_i M_i = 0 and the Frobenius integrability residual
kappa [M_i, M_j] of every pair i < j vanish identically.

The exact check works on whole stacks:

- ``sigma_stack`` caches, once per shape, the identity and the N(N-1)/2
  transpositions sigma(i,j) as one Python-int (P+1, d*d) matrix over one
  denominator, the pairs i < j in ``itertools.combinations`` order.
- ``connections`` writes the N x (P+1) coefficients of a point, -g/x_i
  against the identity and +-1/(x_i - x_j) against sigma(i,j), over one
  denominator; one product with the stack gives all N matrices M_i(x) as
  an (N, d, d) carrier.
- ``euler_residual`` is one tensordot with the integer numerators of x.
- ``integrability_residual`` takes every pair's commutator from one
  broadcast product M_i M_j of the stack with itself, as a (P, d, d)
  carrier in the same pair order.

A check reports the first nonzero residual in that order: the Euler
residual, then the pairs (1,2), (1,3), ..., (N-1,N).

Numeric transport of a fundamental solution along angle-space paths is
available as an optional check of flatness and degree-zero homogeneity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _accel, perms, tableaux
from .errors import PathNearSingular, SingularPoint, VerificationFailed
from .scalars import KappaParam
from .tableaux import Partition, Scaled

# smallest pairwise coordinate separation |x_i - x_j| a transport path may reach
CLEARANCE = 0.05


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def sigma_stack(shape: Partition) -> Scaled:
    """The identity, then sigma(i,j) for the pairs i < j in combinations order, flattened: (P+1, d*d)."""
    n = shape.N
    mats = [tableaux.rep_matrix(shape, perms.identity(n))] + [
        tableaux.transposition_matrix(shape, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    stack = Scaled.stack(mats)
    return Scaled(stack.num.reshape(len(mats), -1), stack.den)


def connections(x, shape: Partition) -> Scaled:
    """M_1(x), ..., M_N(x) on the tableau basis as one (N, d, d) carrier, exactly.

    The coordinates are taken as rationals.
    """
    x = tuple(Fraction(c) for c in check_regular(x))
    n = len(x)
    coef = np.full((n, 1 + n * (n - 1) // 2), Fraction(0), dtype=object)
    coef[:, 0] = [-gamma_const(shape) / xi for xi in x]
    for p, (i, j) in enumerate(itertools.combinations(range(n), 2), 1):
        coef[i, p] = 1 / (x[i] - x[j])
        coef[j, p] = -coef[i, p]
    m = Scaled.of(coef) @ sigma_stack(shape)
    return Scaled(m.num.reshape(n, shape.dim, shape.dim), m.den)


def euler_residual(x, m: Scaled) -> Scaled:
    """sum_i x_i M_i(x) from the stacked connections m at x.

    Identically zero, because the transpositions sum to the content sum.
    """
    xs = Scaled.of([Fraction(c) for c in x])
    return Scaled(np.tensordot(xs.num, m.num, axes=1), xs.den * m.den)


def integrability_residual(m: Scaled, kappa: KappaParam) -> Scaled:
    """kappa (M_i M_j - M_j M_i) of the stacked connections m, for every pair i < j.

    The result is (P, d, d), the pairs in combinations order, and exactly
    zero at regular points.

    For i != j the only x_i-dependent term of M_j is sigma(i,j)/(x_j - x_i),
    whose x_i-derivative sigma(i,j)/(x_i - x_j)^2 is also d_j M_i, so the
    derivative difference d_i M_j - d_j M_i is the zero matrix and the
    commutator term, which is what this returns, carries the full content of
    the flatness condition.
    """
    prod = m.num[:, None] @ m.num[None, :]  # prod[i, j] = M_i M_j
    i, j = np.triu_indices(len(m.num), 1)
    return Scaled(prod[i, j] - prod[j, i], m.den * m.den) * kappa.value


@lru_cache(maxsize=None)
def _pair_arrays(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float sigma(i,j) of sigma_stack and their 0-based pair indices, read-only."""
    stack = sigma_stack(shape)
    mats = (stack.num[1:] / stack.den).astype(np.complex128).reshape(-1, shape.dim, shape.dim)
    pi, pj = np.triu_indices(shape.N, 1)
    for a in (mats, pi, pj):
        a.flags.writeable = False
    return mats, pi, pj


def integrate_path(theta_start, theta_end, steps: int, kappa: KappaParam):
    """Transport L (from the identity) along the straight angle-space segment.

    Fourth-order fixed-step integration of dL = kappa L sum_i M_i dx_i.
    Rejects paths whose minimum pairwise coordinate separation, sampled at
    up to 513 evenly spaced points, drops below CLEARANCE.
    """
    theta_start = np.asarray(theta_start, dtype=np.float64)
    theta_end = np.asarray(theta_end, dtype=np.float64)
    shape = kappa.shape
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


def integrate_loop(waypoints, steps: int, kappa: KappaParam):
    """Chain transport along a closed polyline of angle vectors."""
    total = np.eye(kappa.shape.dim, dtype=np.complex128)
    legs = list(waypoints)
    per_leg = max(1, steps // max(1, len(legs) - 1))
    for a, b in zip(legs, legs[1:]):
        total = total @ integrate_path(a, b, per_leg, kappa)
    return total
