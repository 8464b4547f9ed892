"""Floating-point evaluation of the matrix Laurent approximants on the torus.

H_n stacks the grade-n coefficient matrices against their monomials; the
Cesaro-weighted partial sums K_n are positive semi-definite on the whole
torus inside the admissible parameter window.  The scalar Cesaro kernel
factors through the complete symmetric polynomial, which gives an exact
identity to test the weights and index sets against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _accel, compositions, tableaux
from .coeffs import CoeffStore
from .errors import VerificationFailed


class TorusPoint:
    """A point on the N-torus, stored as its angles."""

    __slots__ = ("angles",)

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=np.complex128)
        if np.max(np.abs(np.abs(coords) - 1.0)) > 1e-12:
            raise ValueError("coordinates must have unit modulus")
        self.angles = np.angle(coords)

    @classmethod
    def from_angles(cls, angles) -> "TorusPoint":
        p = cls.__new__(cls)
        p.angles = np.asarray(angles, dtype=np.float64)
        return p

    @property
    def N(self) -> int:
        return len(self.angles)

    def permuted(self, w) -> "TorusPoint":
        """(xw)_i = x_{w(i)}."""
        return TorusPoint.from_angles([self.angles[w[i] - 1] for i in range(self.N)])

    def scaled(self, phase: float) -> "TorusPoint":
        return TorusPoint.from_angles(self.angles + phase)


def sample_points(n_vars: int, count: int, seed: int) -> list[TorusPoint]:
    rng = np.random.default_rng(seed)
    return [
        TorusPoint.from_angles(rng.uniform(-np.pi, np.pi, n_vars))
        for _ in range(count)
    ]


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
            canon = {g: self._ortho(m) for g, m in self.store.canonical_grade(n).items()}
            gammas = compositions.enumerate_Z(self.N, n)
            mats = np.empty((len(gammas), self.dim, self.dim), dtype=np.complex128)
            for k, g in enumerate(gammas):
                can, w = compositions.canonicalize(g)
                tau = self.rep_float(w)
                mats[k] = tau.T @ canon[can] @ tau
            hit = (np.array(gammas, dtype=np.int64), mats)
            self._grades[n] = hit
        return hit

    def rep_float(self, w) -> np.ndarray:
        """Orthogonal-convention representation matrix, as float; converted once per w."""
        tau = self._taus.get(w)
        if tau is None:
            tau = self._taus[w] = self._ortho(tableaux.rep_matrix(self.store.shape, w))
        return tau


def h_matrix(n: int, x: TorusPoint, coeffs: FloatCoeffs) -> np.ndarray:
    """Grade-n matrix Laurent polynomial at a torus point; Hermitian there."""
    gammas, mats = coeffs.grade_arrays(n)
    return _accel.phase_matrix_sum(gammas, mats, x.angles)


def _cesaro_sum(n: int, hs, n_vars: int) -> np.ndarray:
    """K_n from the grade matrices hs[0..n] at one point."""
    out = np.zeros_like(hs[0])
    for m in range(n + 1):
        out += float(cesaro_weight(n, m, n_vars - 1)) * hs[m]
    return out


def kernel_eval(n: int, x: TorusPoint, coeffs: FloatCoeffs) -> np.ndarray:
    """Cesaro-weighted approximant K_n; PSD for parameters in the admissible window."""
    return _cesaro_sum(n, [h_matrix(m, x, coeffs) for m in range(n + 1)], coeffs.N)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part, by LAPACK (``np.linalg.eigvalsh``)."""
    herm = (h + h.conj().T) / 2
    return float(_accel.jacobi_eigvals(herm)[0])


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


def complete_symmetric(n: int, x: TorusPoint) -> complex:
    """h_n(x): sum of all degree-n monomials."""
    if n == 0:
        return 1.0 + 0.0j
    return _accel.phase_sum(_composition_exponents(x.N, n), x.angles)


def s_sum(k: int, x: TorusPoint) -> complex:
    """S_k(x): sum of x^gamma over the grade-k zero-sum indices."""
    return _accel.phase_sum(_z_exponents(x.N, k), x.angles)


def cesaro_scalar(n: int, x: TorusPoint) -> complex:
    """The (C, N-1) scalar kernel; real and nonnegative on the torus."""
    total = 0.0 + 0.0j
    for k in range(n + 1):
        total += float(cesaro_weight(n, k, x.N - 1)) * s_sum(k, x)
    return total


def sigma_identity_residual(n: int, x: TorusPoint) -> float:
    """| h_n(1/x) h_n(x) - ((N)_n / n!) sigma_n(x) |.

    Raises VerificationFailed when the scalar kernel sigma_n(x) is negative.
    """
    hn = complete_symmetric(n, x)
    lhs = hn.conjugate() * hn
    count = Fraction(1)
    for i in range(n):
        count *= Fraction(x.N + i, i + 1)
    sig = cesaro_scalar(n, x)
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

    H_0..H_max(orders) are evaluated once per point and every K_n is summed
    from them; the covariance permutations are drawn orders outer, points inner.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("psd_report needs at least one order")
    if samples < 1:
        raise ValueError(f"psd_report needs at least one sample point, got {samples}")
    fc = FloatCoeffs(store)
    points = sample_points(store.N, samples, seed)
    rng = np.random.default_rng(seed + 1)
    draws = [[tuple(rng.permutation(store.N) + 1) for _ in points] for _ in orders]
    worst = {n: np.inf for n in orders}
    herm_res = 0.0
    cov_res = 0.0
    for p, x in enumerate(points):
        hs = [h_matrix(m, x, fc) for m in range(max(orders) + 1)]
        for o, n in enumerate(orders):
            k = _cesaro_sum(n, hs, store.N)
            herm_res = max(herm_res, float(np.max(np.abs(k - k.conj().T))))
            worst[n] = min(worst[n], min_eigenvalue(k))
            w = draws[o][p]
            hw = h_matrix(n, x.permuted(w), fc)
            tw = fc.rep_float(w)
            cov_res = max(cov_res, float(np.max(np.abs(hw - tw.T @ hs[n] @ tw))))
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
