"""Floating-point evaluation of the matrix Laurent approximants on the torus.

H_n stacks the grade-n coefficient matrices against their monomials; the
Cesaro-weighted partial sums K_n are positive semi-definite on the whole
torus inside the admissible parameter window.  The scalar Cesaro kernel
factors through the complete symmetric polynomial, which gives an exact
identity to test the weights and index sets against.

A positivity scan evaluates its sample points in blocks: one phase sum per
grade per block, one batched eigenvalue call per order per block.  Every float
it reports is bit for bit that of evaluating the points one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _accel, compositions, tableaux
from ._rng import DefaultRng
from .coeffs import CoeffStore
from .errors import VerificationFailed

# Sample points psd_report evaluates at once: one group of the point rows that
# every GEMM of _accel.phase_matrix_sum takes.  Any block size gives the same
# floats, but a block that is not a multiple of _accel._ROWS leaves rows of a
# GEMM unused, and the working arrays (each grade's phases and H at every point
# of the block) grow with the block.
_BLOCK = _accel._ROWS


def _sample_angles(n_vars: int, count: int, seed: int) -> np.ndarray:
    """count seeded torus points as a (count, n_vars) float64 array of angles in [-pi, pi).

    The points of numpy's ``default_rng(seed).uniform(-pi, pi, (count, n_vars))``,
    drawn by the stdlib ``_rng.DefaultRng``; a negative seed raises ValueError.
    """
    return DefaultRng(seed).uniform(-np.pi, np.pi, (count, n_vars))


def cesaro_weight(n: int, m: int, delta: int) -> Fraction:
    """(-n)_m / (-n - delta)_m for m <= n, zero beyond."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > n:
        return Fraction(0)
    num = Fraction(1)
    den = Fraction(1)
    for i in range(m):
        num *= -n + i
        den *= -n - delta + i
    return num / den


class FloatCoeffs:
    """Per-grade stacked float materialization of a coefficient store.

    Each grade comes from the store's canonical matrices, each converted once
    to the orthonormal convention A = D^{1/2} cA D^{-1/2}: with
    canonicalize(gamma) = (can, w), A_gamma = tau(w)^T A_can tau(w) for the
    float orthogonal tau(w).  A_{-gamma} comes from its own stored orbit, not
    as A_gamma^T, so the Hermiticity of H_n still checks the store.

    A grade is its enumerate_Z indices and the real float64 (K, d, d) stack of
    their matrices, in that order: gammas[::-1] == -gammas, which is what lets
    _accel.phase_matrix_sum take the phases of the -gamma half as the conjugates
    of the others, and sum the stack as real GEMMs against cosines and sines.
    Each index keeps the rows of its canonical matrix and of its tau(w) in a table
    of the grade's distinct ones, and the stack is written 128 indices at a time
    from those rows: past the result, only the index lists grow with K.
    """

    def __init__(self, store: CoeffStore):
        self.store = store
        self.N = store.N
        self.dim = store.dim
        self._grades: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._taus: dict[tuple[int, ...], np.ndarray] = {}
        self._sqrt_d = np.sqrt(np.array([float(x) for x in store.norms]))

    def _ortho(self, mat: tableaux.Scaled) -> np.ndarray:
        return self._sqrt_d[:, None] * mat.floats() / self._sqrt_d[None, :]

    def grade_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        hit = self._grades.get(n)
        if hit is None:
            canon = self.store.canonical_grade(n)
            can_rows = {g: i for i, g in enumerate(canon)}
            cans = np.array([self._ortho(m) for m in canon.values()])
            gammas = compositions.enumerate_Z(self.N, n)
            c_rows, w_rows, ws = [], [], {}
            for g in gammas:
                can, w = compositions.canonicalize(g)
                c_rows.append(can_rows[can])
                w_rows.append(ws.setdefault(w, len(ws)))
            taus = np.array([self.rep_float(w) for w in ws])
            mats = np.empty((len(gammas),) + cans.shape[1:])
            for t in range(0, len(gammas), _accel._TERMS):
                chunk = slice(t, t + _accel._TERMS)
                tw = taus[w_rows[chunk]]
                np.matmul(np.swapaxes(tw, 1, 2) @ cans[c_rows[chunk]], tw, out=mats[chunk])
            hit = (np.array(gammas, dtype=np.int64), mats)
            self._grades[n] = hit
        return hit

    def rep_float(self, w) -> np.ndarray:
        """Orthogonal-convention representation matrix, as float; converted once per w."""
        tau = self._taus.get(w)
        if tau is None:
            tau = self._taus[w] = self._ortho(tableaux.rep_matrix(self.store.shape, w))
        return tau


def h_matrix(n: int, thetas: np.ndarray, coeffs: FloatCoeffs) -> np.ndarray:
    """Grade-n matrix Laurent polynomial at torus angles, Hermitian there: (d, d) at
    one point (N,), (P, d, d) at each point of a block (P, N)."""
    gammas, mats = coeffs.grade_arrays(n)
    return _accel.phase_matrix_sum(gammas, mats, thetas)


def _cesaro_sum(n: int, hs, n_vars: int) -> np.ndarray:
    """K_n from the grade matrices hs[0..n], at one point or at each point of a block."""
    out = np.zeros_like(hs[0])
    for m in range(n + 1):
        out += float(cesaro_weight(n, m, n_vars - 1)) * hs[m]
    return out


def kernel_eval(n: int, thetas: np.ndarray, coeffs: FloatCoeffs) -> np.ndarray:
    """Cesaro-weighted approximant K_n at torus angles (N,); PSD for parameters in the
    admissible window."""
    return _cesaro_sum(n, [h_matrix(m, thetas, coeffs) for m in range(n + 1)], coeffs.N)


def _adjoint(h: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(h.conj(), -1, -2)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of h, over every matrix if h is a
    stack (P, d, d); by LAPACK (``np.linalg.eigvalsh``)."""
    herm = (h + _adjoint(h)) / 2
    return float(_accel.jacobi_eigvals(herm)[..., 0].min())


@lru_cache(maxsize=None)
def _composition_exponents(n_vars: int, total: int) -> np.ndarray:
    arr = np.array(list(compositions.compositions_of(total, n_vars)), dtype=np.int64)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _z_exponents(n_vars: int, k: int) -> np.ndarray:
    arr = np.array(compositions.enumerate_Z(n_vars, k), dtype=np.int64)
    arr.flags.writeable = False
    return arr


def complete_symmetric(n: int, thetas: np.ndarray) -> complex:
    """h_n(x) at the point x of torus angles thetas (N,): sum of all degree-n monomials."""
    if n == 0:
        return 1.0 + 0.0j
    return _accel.phase_sum(_composition_exponents(len(thetas), n), thetas)


def s_sum(k: int, thetas: np.ndarray) -> complex:
    """S_k(x): sum of x^gamma over the grade-k zero-sum indices."""
    return _accel.phase_sum(_z_exponents(len(thetas), k), thetas)


def cesaro_scalar(n: int, thetas: np.ndarray) -> complex:
    """The (C, N-1) scalar kernel; real and nonnegative on the torus."""
    total = 0.0 + 0.0j
    for k in range(n + 1):
        total += float(cesaro_weight(n, k, len(thetas) - 1)) * s_sum(k, thetas)
    return total


def sigma_identity_residual(n: int, thetas: np.ndarray) -> float:
    """| h_n(1/x) h_n(x) - ((N)_n / n!) sigma_n(x) | at the point x of torus angles thetas.

    Raises VerificationFailed when the scalar kernel sigma_n(x) is negative.
    """
    hn = complete_symmetric(n, thetas)
    lhs = hn.conjugate() * hn
    count = Fraction(1)
    for i in range(n):
        count *= Fraction(len(thetas) + i, i + 1)
    sig = cesaro_scalar(n, thetas)
    if not sig.real >= -1e-10:
        raise VerificationFailed(f"scalar kernel negative: {sig.real}")
    return abs(lhs - float(count) * sig)


@dataclass
class KernelReport:
    """Reproducible record of a positivity scan."""

    shape: tuple[int, ...]
    kappa: str
    orders: list[int]
    samples: int
    seed: int
    min_eigenvalues: dict[int, float] = field(default_factory=dict)
    hermiticity_residual: float = 0.0
    covariance_residual: float = 0.0
    worst: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "kappa": self.kappa,
            "orders": self.orders,
            "samples": self.samples,
            "seed": self.seed,
            "min_eigenvalues": {str(k): v for k, v in self.min_eigenvalues.items()},
            "hermiticity_residual": self.hermiticity_residual,
            "covariance_residual": self.covariance_residual,
            "worst": self.worst,
        }


def psd_report(store: CoeffStore, orders, samples: int, seed: int) -> KernelReport:
    """Scan seeded torus samples for kernel positivity and symmetry residuals.

    The points are evaluated in blocks of _BLOCK: per block, H_0..H_max(orders)
    at every point in one phase sum per grade, each K_n summed from them, the
    eigenvalues of all its Hermitian parts in one call, H_n at the permuted
    points in one phase sum and the covariance as one stacked tau(w)^T H_n tau(w).
    The points are _sample_angles(N, samples, seed); the covariance permutations
    are those of numpy's ``default_rng(seed + 1).permutation(N)``, drawn by
    the stdlib ``_rng.DefaultRng`` orders outer, points inner.  Every
    reported float is bit for bit that of a scan one point at a time, at any
    block size and any BLAS thread count.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("psd_report needs at least one order")
    if min(orders) < 0 or len(set(orders)) < len(orders):
        raise ValueError(f"psd_report needs distinct nonnegative orders, got {orders}")
    if samples < 1:
        raise ValueError(f"psd_report needs at least one sample point, got {samples}")
    store.ensure_grade(max(orders))  # every grade under one memo, not one grade per call
    fc = FloatCoeffs(store)
    thetas = _sample_angles(store.N, samples, seed)
    rng = DefaultRng(seed + 1)
    # draws[o, p] = w - 1 for the permutation w of order orders[o] at point p, tau(w) = taus[tau_rows[o, p]]
    draws = np.array([rng.permutations(store.N, samples) for _ in orders])
    perms, tau_rows = np.unique(draws.reshape(-1, store.N), axis=0, return_inverse=True)
    taus = np.array([fc.rep_float(tuple(w)) for w in (perms + 1).tolist()])
    tau_rows = tau_rows.reshape(draws.shape[:2])
    worst = {n: np.inf for n in orders}
    herm_res = 0.0
    cov_res = 0.0
    for start in range(0, samples, _BLOCK):
        block = thetas[start : start + _BLOCK]
        hs = [h_matrix(m, block, fc) for m in range(max(orders) + 1)]
        for o, n in enumerate(orders):
            k = _cesaro_sum(n, hs, store.N)
            herm_res = max(herm_res, float(np.max(np.abs(k - _adjoint(k)))))
            worst[n] = min(worst[n], min_eigenvalue(k))
            ws = draws[o, start : start + _BLOCK]
            hw = h_matrix(n, np.take_along_axis(block, ws, axis=1), fc)
            tw = taus[tau_rows[o, start : start + _BLOCK]]
            cov_res = max(cov_res, float(np.max(np.abs(hw - np.swapaxes(tw, 1, 2) @ hs[n] @ tw))))
    return KernelReport(
        shape=store.shape.parts,
        kappa=str(store.kappa.value),
        orders=orders,
        samples=samples,
        seed=seed,
        min_eigenvalues=worst,
        hermiticity_residual=herm_res,
        covariance_residual=cov_res,
        worst={"min_eigenvalue": min(worst.values()), "hermiticity": herm_res, "covariance": cov_res},
    )
