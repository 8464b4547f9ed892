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
from .errors import NotYetComputable, VerificationFailed


class TorusPoint:
    """A point on the N-torus, stored as angles plus unit-modulus coordinates."""

    __slots__ = ("angles", "coords")

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=np.complex128)
        if np.max(np.abs(np.abs(coords) - 1.0)) > 1e-12:
            raise ValueError("coordinates must have unit modulus")
        self.coords = coords
        self.angles = np.angle(coords)

    @classmethod
    def from_angles(cls, angles) -> "TorusPoint":
        p = cls.__new__(cls)
        p.angles = np.asarray(angles, dtype=np.float64)
        p.coords = np.exp(1j * p.angles)
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
    """Per-grade stacked float materialization of a coefficient store."""

    def __init__(self, store: CoeffStore):
        self.store = store
        self.N = store.N
        self.dim = store.dim
        self._grades: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        sqrt_d = np.sqrt(np.array([float(x) for x in store.norms]))
        self._sqrt_d = sqrt_d

    def grade_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        hit = self._grades.get(n)
        if hit is None:
            self.store.ensure_grade(n)
            gammas = compositions.enumerate_Z(self.N, n)
            mats = np.empty((len(gammas), self.dim, self.dim), dtype=np.complex128)
            for k, g in enumerate(gammas):
                mats[k] = self.store.ortho_coeff_float(g)
            hit = (np.array(gammas, dtype=np.int64), mats)
            self._grades[n] = hit
        return hit

    def rep_float(self, w) -> np.ndarray:
        """Orthogonal-convention representation matrix, as float."""
        sig = tableaux.rep_matrix(self.store.shape, w).astype(float)
        return self._sqrt_d[:, None] * sig / self._sqrt_d[None, :]


def h_matrix(n: int, x: TorusPoint, coeffs: FloatCoeffs | CoeffStore) -> np.ndarray:
    """Grade-n matrix Laurent polynomial at a torus point; Hermitian there."""
    fc = coeffs if isinstance(coeffs, FloatCoeffs) else FloatCoeffs(coeffs)
    if fc.store.max_grade is not None and n > fc.store.max_grade:
        raise NotYetComputable(f"grade {n} exceeds cap {fc.store.max_grade}")
    gammas, mats = fc.grade_arrays(n)
    return _accel.phase_matrix_sum(gammas, mats, x.angles)


def kernel_eval(n: int, x: TorusPoint, coeffs: FloatCoeffs | CoeffStore) -> np.ndarray:
    """Cesaro-weighted approximant K_n; PSD for parameters in the admissible window."""
    fc = coeffs if isinstance(coeffs, FloatCoeffs) else FloatCoeffs(coeffs)
    out = np.zeros((fc.dim, fc.dim), dtype=np.complex128)
    for m in range(n + 1):
        out += float(cesaro_weight(n, m, fc.N - 1)) * h_matrix(m, x, fc)
    return out


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part, by LAPACK (``np.linalg.eigvalsh``)."""
    herm = (h + h.conj().T) / 2
    return float(_accel.jacobi_eigvals(herm)[0])


@lru_cache(maxsize=None)
def _composition_exponents(n_vars: int, total: int) -> np.ndarray:
    from .ybgraph import _compositions_of

    arr = np.array(_compositions_of(total, n_vars), dtype=np.int64)
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


def psd_report(
    store: CoeffStore,
    orders,
    samples: int,
    seed: int,
    check_covariance: bool = True,
) -> KernelReport:
    """Scan seeded torus samples for kernel positivity and symmetry residuals."""
    fc = FloatCoeffs(store)
    orders = list(orders)
    points = sample_points(store.N, samples, seed)
    report = KernelReport(
        shape=store.shape.parts,
        kappa=str(store.kappa.value),
        orders=orders,
        samples=samples,
        seed=seed,
    )
    herm_res = 0.0
    cov_res = 0.0
    rng = np.random.default_rng(seed + 1)
    for n in orders:
        worst = np.inf
        for x in points:
            k = kernel_eval(n, x, fc)
            herm_res = max(herm_res, float(np.max(np.abs(k - k.conj().T))))
            worst = min(worst, min_eigenvalue(k))
            if check_covariance:
                w = tuple(rng.permutation(store.N) + 1)
                h = h_matrix(n, x, fc)
                hw = h_matrix(n, x.permuted(w), fc)
                tw = fc.rep_float(w)
                cov_res = max(
                    cov_res, float(np.max(np.abs(hw - tw.T @ h @ tw)))
                )
        report.min_eigenvalues[n] = worst
    report.hermiticity_residual = herm_res
    report.covariance_residual = cov_res
    report.worst = {
        "min_eigenvalue": min(report.min_eigenvalues.values()),
        "hermiticity": herm_res,
        "covariance": cov_res,
    }
    return report
