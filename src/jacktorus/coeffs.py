"""Matrix Fourier coefficients of the torus orthogonality measure.

The store solves, grade by grade, the linear recurrence that determines the
coefficient matrix at each zero-sum index from strictly lower data: indices
are grouped by their negative part, processed triangular-ascending in the
positive part, and the left operator is inverted exactly through its
Jucys-Murphy diagonalization.

Internal carrier: the similarity-transformed matrices
    cA = D^{-1/2} A D^{1/2},   D = diag of tableau norms,
whose entries d_T^{-1} <x^pi (x) T, x^nu (x) T'> are exact rationals.  Every
recurrence and conjugation identity holds for cA verbatim with the rational
unnormalized-basis matrices sigma(w) in place of the orthogonal tau(w); the
adjoint identity picks up a D-twist, equivalently G_{-gamma} = G_gamma^T for
the pairing matrices G = D cA.  Orthonormal-convention matrices are
materialized only as floats for kernel evaluation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import compositions, perms, tableaux
from .compositions import Vec
from .errors import NotYetComputable, PoleExcluded, StoreCorrupt
from .scalars import KappaParam, rational
from .tableaux import Partition


class CoeffStore:
    """Grade-indexed store of coefficient matrices for one (shape, kappa)."""

    def __init__(self, shape: Partition, kappa: KappaParam, max_grade: int | None = None):
        if kappa.shape != shape.parts:
            raise ValueError("kappa was validated against a different shape")
        self.shape = shape
        self.kappa = kappa
        self.max_grade = max_grade
        self.basis = tableaux.enumerate_rsyt(shape)
        self.dim = shape.dim
        self.norms = tableaux.norm0_diag(shape)
        zero = (0,) * shape.N
        self.grades: dict[int, dict[Vec, np.ndarray]] = {
            0: {zero: tableaux.identity_matrix(self.dim)}
        }
        self.sealed_grade = 0
        self._trans_cache: dict[int, np.ndarray] = {}

    @property
    def N(self) -> int:
        return self.shape.N

    def _sigma_1j(self, j: int) -> np.ndarray:
        mat = self._trans_cache.get(j)
        if mat is None:
            mat = tableaux.transposition_matrix(self.shape, 1, j)
            self._trans_cache[j] = mat
        return mat

    # -- solving ---------------------------------------------------------

    def ensure_grade(self, n: int) -> "CoeffStore":
        if self.max_grade is not None and n > self.max_grade:
            raise NotYetComputable(f"grade {n} exceeds the configured cap {self.max_grade}")
        while self.sealed_grade < n:
            self.solve_grade(self.sealed_grade + 1)
        return self

    def solve_grade(self, n: int) -> "CoeffStore":
        """Seal grade n; grades below must already be sealed."""
        if n <= self.sealed_grade:
            return self
        if n != self.sealed_grade + 1:
            raise ValueError(f"grade {n - 1} not sealed yet")
        reps = [
            g for g in compositions.enumerate_Z(self.N, n) if g == compositions.sort_desc(g)
        ]
        # group by the negative part; solve each group triangular-ascending
        # in the positive part so every same-grade lookup is already known
        groups: dict[Vec, list[Vec]] = {}
        for g in reps:
            groups.setdefault(compositions.split_pi_nu(g)[1], []).append(g)
        current: dict[Vec, np.ndarray] = {}
        for nu in sorted(groups):
            for gamma in self._class_order(groups[nu]):
                current[gamma] = self._solve_one(gamma, current)
        self.grades[n] = current
        self.sealed_grade = n
        return self

    def _class_order(self, block: list[Vec]) -> list[Vec]:
        """Solve order within a fixed-negative-part class.

        Any linear extension of the triangular order on the positive parts is
        valid; the default is ascending lexicographic prefix sums.
        """
        return sorted(
            block, key=lambda g: compositions.prefix_key(compositions.split_pi_nu(g)[0])
        )

    def _solve_one(self, gamma: Vec, current: dict[Vec, np.ndarray]) -> np.ndarray:
        """Assemble the right side at a sorted index and invert the left operator."""
        kap = self.kappa.value
        g1 = gamma[0]
        m = sum(1 for g in gamma if g == g1)
        rhs = np.zeros((self.dim, self.dim), dtype=object)
        rhs[:] = Fraction(0)
        for j in range(m + 1, self.N + 1):
            gj = gamma[j - 1]
            if gj >= 0:
                acc = None
                for ell in range(1, g1 - gj):
                    delta = _shift(gamma, j, ell)
                    term = self._fetch(delta, current)
                    acc = term if acc is None else acc + term
                if acc is not None:
                    rhs = rhs - (self._sigma_1j(j) @ acc) * kap
            else:
                acc_left = None
                for ell in range(1, g1):
                    term = self._fetch(_shift(gamma, j, ell), current)
                    acc_left = term if acc_left is None else acc_left + term
                if acc_left is not None:
                    rhs = rhs - (self._sigma_1j(j) @ acc_left) * kap
                acc_right = None
                for ell in range(1, -gj + 1):
                    term = self._fetch(_shift(gamma, j, ell), current)
                    acc_right = term if acc_right is None else acc_right + term
                if acc_right is not None:
                    rhs = rhs - (acc_right @ self._sigma_1j(j)) * kap
        # (g1 I + kappa sum_{l>m} sigma(1,l)) = sigma(1,m) (g1 I + kappa JM_m) sigma(1,m)
        inv_diag = []
        for t in self.basis:
            den = g1 + kap * t.content[m - 1]
            if den == 0:
                raise PoleExcluded(
                    kap, g1, t.content[m - 1],
                    context=f"left operator singular at gamma={gamma}, content c({m},T)={t.content[m - 1]}",
                )
            inv_diag.append(Fraction(1) / den)
        conj = self._sigma_1j(m) if m > 1 else None
        if conj is not None:
            rhs = conj @ rhs
        rhs = np.array(inv_diag, dtype=object)[:, None] * rhs
        if conj is not None:
            rhs = conj @ rhs
        return rhs

    def _fetch(self, delta: Vec, current: dict[Vec, np.ndarray] | None) -> np.ndarray:
        """Carried matrix at an arbitrary zero-sum index, via canonical lookup."""
        can, w = compositions.canonicalize(delta)
        s = compositions.grade(can)
        if s <= self.sealed_grade:
            stored = self.grades[s][can]
        elif current is not None and can in current:
            stored = current[can]
        else:
            raise AssertionError(
                f"lookup of {delta} (canonical {can}, grade {s}) before it was solved"
            )
        if perms.is_identity(w):
            return stored
        mat = tableaux.rep_matrix(self.shape, w)
        mat_inv = tableaux.rep_matrix(self.shape, perms.inverse(w))
        return mat_inv @ stored @ mat

    # -- lookups ---------------------------------------------------------

    def coeff(self, gamma) -> np.ndarray:
        """Carried matrix cA_gamma; the zero matrix off the zero-sum lattice."""
        gamma = tuple(int(g) for g in gamma)
        if sum(gamma) != 0:
            z = np.zeros((self.dim, self.dim), dtype=object)
            z[:] = Fraction(0)
            return z
        n = compositions.grade(gamma)
        self.ensure_grade(n)
        can, _ = compositions.canonicalize(gamma)
        if can in self.grades[n]:
            return self._fetch(gamma, None)
        # sign-reversed orbit: cA_{-g} = D^{-1} cA_g^T D
        neg = tuple(-g for g in gamma)
        mat = self._fetch(neg, None).T
        d = np.array(self.norms, dtype=object)
        return (1 / d)[:, None] * mat * d[None, :]

    def pairing_matrix(self, gamma) -> np.ndarray:
        """G_gamma = D cA_gamma: exact monomial pairing matrix."""
        mat = self.coeff(gamma)
        d = np.array(self.norms, dtype=object)
        return d[:, None] * mat

    def ortho_coeff_float(self, gamma) -> np.ndarray:
        """Orthonormal-convention coefficient, as float (introduces sqrt of norms)."""
        mat = self.coeff(gamma)
        sq = np.sqrt(np.array([float(x) for x in self.norms]))
        return sq[:, None] * mat.astype(float) / sq[None, :]

    def canonical_grade(self, n: int) -> dict[Vec, np.ndarray]:
        self.ensure_grade(n)
        return self.grades[n]

    # -- independent verifier ---------------------------------------------

    def verify_selfadjoint(self, alpha, beta, i: int) -> np.ndarray:
        """Residual of the self-adjointness identity; exactly zero when the store is correct.

        (a_i - b_i) cA_{a-b}
            = k * sum_{a_j > a_i} sum_{l=1}^{a_j-a_i} sigma(i,j) cA_{a+l(e_i-e_j)-b}
            - k * sum_{a_i > a_j} sum_{l=0}^{a_i-a_j-1} sigma(i,j) cA_{a+l(e_j-e_i)-b}
            - k * sum_{b_j > b_i} sum_{l=1}^{b_j-b_i} cA_{a-l(e_i-e_j)-b} sigma(i,j)
            + k * sum_{b_i > b_j} sum_{l=0}^{b_i-b_j-1} cA_{a-l(e_j-e_i)-b} sigma(i,j)
        """
        alpha = tuple(alpha)
        beta = tuple(beta)
        if sum(alpha) != sum(beta):
            raise ValueError("identity requires |alpha| = |beta|")
        kap = self.kappa.value
        n = len(alpha)
        diff = tuple(a - b for a, b in zip(alpha, beta))
        residual = self.coeff(diff) * Fraction(alpha[i - 1] - beta[i - 1])
        for j in range(1, n + 1):
            if j == i:
                continue
            sig = tableaux.transposition_matrix(self.shape, i, j)
            ai, aj = alpha[i - 1], alpha[j - 1]
            bi, bj = beta[i - 1], beta[j - 1]
            if aj > ai:
                for ell in range(1, aj - ai + 1):
                    idx = _move(diff, i, j, ell)
                    residual = residual - (sig @ self.coeff(idx)) * kap
            elif ai > aj:
                for ell in range(0, ai - aj):
                    idx = _move(diff, j, i, ell)
                    residual = residual + (sig @ self.coeff(idx)) * kap
            if bj > bi:
                for ell in range(1, bj - bi + 1):
                    idx = _move(diff, i, j, -ell)
                    residual = residual + (self.coeff(idx) @ sig) * kap
            elif bi > bj:
                for ell in range(0, bi - bj):
                    idx = _move(diff, j, i, -ell)
                    residual = residual - (self.coeff(idx) @ sig) * kap
        return residual

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        doc = {
            "header": {
                "N": self.N,
                "shape": list(self.shape.parts),
                "kappa": str(self.kappa.value),
                "sealed_grade": self.sealed_grade,
                "basis_order": [list(t.content) for t in self.basis],
            },
            "grades": [
                {
                    "n": n,
                    "entries": [
                        {
                            "gamma": list(g),
                            "matrix": [[str(x) for x in row] for row in self.grades[n][g]],
                        }
                        for g in sorted(self.grades[n])
                    ],
                }
                for n in sorted(self.grades)
            ],
        }
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path, kappa: KappaParam | None = None) -> "CoeffStore":
        """Read a saved store; raises StoreCorrupt when it does not fit the request.

        The checks are structural (parameter, shape, basis order, grades
        present, matrix sizes); stored entries are not recomputed.
        """
        doc = json.loads(Path(path).read_text())
        head = doc["header"]
        shape = Partition(tuple(head["shape"]))
        if kappa is None:
            from .scalars import make_kappa

            val = rational(head["kappa"])
            kappa = make_kappa(val.numerator, val.denominator, shape.parts)
        elif kappa.shape != shape.parts:
            raise StoreCorrupt(f"store file was built for shape {shape.parts}, not {kappa.shape}")
        store = cls(shape, kappa)
        if kappa.value != rational(head["kappa"]):
            raise StoreCorrupt(
                f"store file was built with parameter {head['kappa']}, not {kappa.value}"
            )
        expected = [list(t.content) for t in store.basis]
        if head["basis_order"] != expected:
            raise StoreCorrupt("store file uses a different basis order")
        for rec in doc["grades"]:
            n = rec["n"]
            entries = {}
            for e in rec["entries"]:
                rows = e["matrix"]
                if len(rows) != store.dim or any(len(row) != store.dim for row in rows):
                    raise StoreCorrupt(
                        f"matrix at {e['gamma']} is not {store.dim}x{store.dim}"
                    )
                mat = np.array([[rational(x) for x in row] for row in rows], dtype=object)
                entries[tuple(e["gamma"])] = mat
            store.grades[n] = entries
        present = {rec["n"] for rec in doc["grades"]}
        missing = [n for n in range(head["sealed_grade"] + 1) if n not in present]
        if missing:
            raise StoreCorrupt(
                f"store file claims sealed grade {head['sealed_grade']} but lacks grades {missing}"
            )
        store.sealed_grade = head["sealed_grade"]
        return store


def _shift(gamma: Vec, j: int, ell: int) -> Vec:
    """gamma + ell*(e_j - e_1)."""
    out = list(gamma)
    out[0] -= ell
    out[j - 1] += ell
    return tuple(out)


def _move(gamma: Vec, i: int, j: int, ell: int) -> Vec:
    """gamma + ell*(e_i - e_j)."""
    out = list(gamma)
    out[i - 1] += ell
    out[j - 1] -= ell
    return tuple(out)
