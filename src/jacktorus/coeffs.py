"""Matrix Fourier coefficients of the torus orthogonality measure.

The store solves, grade by grade, the linear recurrence that determines the
coefficient matrix at each zero-sum index from strictly lower data: indices
are grouped by their negative part, processed triangular-ascending in the
positive part, and the left operator is inverted exactly through its
Jucys-Murphy diagonalization.  That inverse depends only on (gamma_1, m), m
the multiplicity of gamma_1, and is built once per pair and kept.  A store
is built from one validated ``KappaParam`` and reads the shape from it.

Only non-increasing indices are stored; the matrix at any other zero-sum
index delta is sigma(w)^{-1} cA_can sigma(w), can = w.delta its sorted
representative.  Each ``ensure_grade`` call memoizes the carriers its right
sides read, and the grade being solved, so it canonicalizes and conjugates
each index at most once.  No stored matrix changes during the call, so the
memo never hides a replaced one; it is dropped on return.

Internal carrier: the similarity-transformed matrices
    cA = D^{-1/2} A D^{1/2},   D = diag of tableau norms,
whose entries d_T^{-1} <x^pi (x) T, x^nu (x) T'> are rationals, each held
like the sigma(w) of ``tableaux.rep_matrix`` as a ``tableaux.Scaled``: Python
ints over one positive denominator, reduced once per solved matrix by the gcd
of entries and denominator, so a stored carrier is unique.  Every recurrence
and conjugation identity holds for cA verbatim with sigma(w) in place of the
orthogonal tau(w); the adjoint identity picks up a D-twist, equivalently
G_{-gamma} = G_gamma^T for the pairing matrices G = D cA.  ``coeff`` and
``pairing_matrix`` return carriers too; entries become "p/q" text only in
``save`` (``Scaled.texts``) and come back as integers only in ``load``
(``Scaled.from_texts``), and orthonormal-convention matrices appear only as
kernel floats.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import compositions, perms, tableaux
from .compositions import Vec
from .errors import PoleExcluded, StoreCorrupt, WriteFailed
from .scalars import KappaParam
from .tableaux import Partition, Scaled, total


class CoeffStore:
    """Grade-indexed store of coefficient matrices for one validated kappa and its shape."""

    def __init__(self, kappa: KappaParam):
        shape = self.shape = kappa.shape
        self.kappa = kappa
        self.basis = tableaux.enumerate_rsyt(shape)
        self.dim = shape.dim
        self.norms = tableaux.norm0_diag(shape)
        zero = (0,) * shape.N
        self.grades: dict[int, dict[Vec, Scaled]] = {
            0: {zero: tableaux.rep_matrix(shape, perms.identity(shape.N))}
        }
        self.sealed_grade = 0
        # (g1, m) -> inverse of the left operator g1 I + kappa sum_{l>m} sigma(1,l)
        self._left_inverses: dict[tuple[int, int], Scaled] = {}

    @property
    def N(self) -> int:
        return self.shape.N

    # -- solving ---------------------------------------------------------

    def ensure_grade(self, n: int) -> "CoeffStore":
        """Seal every grade up to n under one memo of the carriers their right sides read."""
        memo: dict[Vec, Scaled] = {}
        while self.sealed_grade < n:
            self.solve_grade(self.sealed_grade + 1, memo)
        return self

    def solve_grade(self, n: int, memo: dict[Vec, Scaled] | None = None) -> "CoeffStore":
        """Seal grade n; grades below must already be sealed.

        memo (zero-sum index -> carrier) is the calling ``ensure_grade``'s memo;
        each index of grade n enters it once solved.  Called alone: a fresh one.
        """
        if n <= self.sealed_grade:
            return self
        if n != self.sealed_grade + 1:
            raise ValueError(f"grade {n - 1} not sealed yet")
        memo = {} if memo is None else memo
        reps = compositions.canonical_Z(self.N, n)
        # group by the negative part; solve each group triangular-ascending
        # in the positive part so every same-grade lookup is already known
        groups: dict[Vec, list[Vec]] = {}
        for g in reps:
            groups.setdefault(compositions.split_pi_nu(g)[1], []).append(g)
        for nu in sorted(groups):
            for gamma in self._class_order(groups[nu]):
                memo[gamma] = self._solve_one(gamma, memo)
        self.grades[n] = {g: memo[g] for g in reps}
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

    def _solve_one(self, gamma: Vec, memo: dict[Vec, Scaled]) -> Scaled:
        """Assemble the right side at a sorted index and apply the inverse left operator."""
        kap = self.kappa.value
        g1 = gamma[0]
        m = sum(1 for g in gamma if g == g1)
        terms = []
        for j in range(m + 1, self.N + 1):
            gj = gamma[j - 1]
            sig = tableaux.transposition_matrix(self.shape, 1, j)
            left = self._line_sum(gamma, j, g1 - 1 - max(gj, 0), memo)
            if left is not None:
                terms.append(sig @ left)
            right = self._line_sum(gamma, j, -gj, memo)
            if right is not None:
                terms.append(right @ sig)
        rhs = total(terms) * -kap
        return (self._left_inverse(gamma, g1, m) @ rhs).reduced()

    def _left_inverse(self, gamma: Vec, g1: int, m: int) -> Scaled:
        """Inverse of g1 I + kappa sum_{l>m} sigma(1,l), reduced; built once per (g1, m) and kept."""
        inv = self._left_inverses.get((g1, m))
        if inv is not None:
            return inv
        kap = self.kappa.value
        p, q = kap.numerator, kap.denominator
        # the operator is sigma(1,m) (g1 I + kappa JM_m) sigma(1,m); row T of the diagonal
        # inverse is q / (q g1 + p c(m,T)), written over the lcm L of those values
        rows = [q * g1 + p * t.content[m - 1] for t in self.basis]
        if 0 in rows:
            c = self.basis[rows.index(0)].content[m - 1]
            raise PoleExcluded(kap, g1, c, context=f"left operator singular at gamma={gamma}, content c({m},T)={c}")
        lcm = math.lcm(*rows)
        inner = Scaled(np.diag(np.array([q * (lcm // r) for r in rows], dtype=object)), lcm)
        conj = tableaux.transposition_matrix(self.shape, 1, m)
        inv = self._left_inverses[(g1, m)] = (conj @ inner @ conj).reduced()
        return inv

    def _line_sum(self, gamma: Vec, j: int, last: int, memo: dict[Vec, Scaled]) -> Scaled | None:
        """Sum of cA over gamma + l(e_j - e_1) for l = 1..last; None when empty."""
        if last < 1:
            return None
        return total([self._fetch(_move(gamma, j, 1, ell), memo) for ell in range(1, last + 1)])

    def _fetch(self, delta: Vec, memo: dict[Vec, Scaled]) -> Scaled:
        """Carried matrix at an arbitrary zero-sum index: sigma(w)^{-1} cA_can sigma(w), can = w.delta.

        A miss canonicalizes delta, conjugates the carrier at can (from the memo
        or a sealed grade) and keeps the result in the memo.  Lookups from
        outside the recurrence pass an empty one, so nothing is kept.
        """
        mat = memo.get(delta)
        if mat is not None:
            return mat
        can, w = compositions.canonicalize(delta)
        s = compositions.grade(can)
        stored = memo.get(can) or self.grades.get(s, {}).get(can)
        if stored is None:
            raise AssertionError(f"lookup of {delta} (canonical {can}, grade {s}) before it was solved")
        mat = stored
        if not perms.is_identity(w):
            sig = tableaux.rep_matrix(self.shape, w)
            mat = (tableaux.rep_matrix(self.shape, perms.inverse(w)) @ stored @ sig).reduced()
        memo[delta] = mat
        return mat

    def _carrier(self, gamma: Vec) -> Scaled:
        """cA at a zero-sum index, solving the grades it needs first."""
        self.ensure_grade(compositions.grade(gamma))
        return self._fetch(gamma, {})

    # -- lookups ---------------------------------------------------------

    def coeff(self, gamma) -> Scaled:
        """Carried matrix cA_gamma; the zero matrix off the zero-sum lattice."""
        gamma = tuple(int(g) for g in gamma)
        if sum(gamma) != 0:
            return Scaled(np.zeros((self.dim, self.dim), dtype=object), 1)
        return self._carrier(gamma)

    def pairing_matrix(self, gamma) -> Scaled:
        """G_gamma = D cA_gamma, reduced: exact monomial pairing matrix."""
        return (tableaux.norm_matrix(self.shape) @ self.coeff(gamma)).reduced()

    def ortho_coeff_float(self, gamma) -> np.ndarray:
        """Orthonormal-convention coefficient, as float; the reference for ``kernels.FloatCoeffs``."""
        sq = np.sqrt(np.array([float(x) for x in self.norms]))
        return sq[:, None] * self.coeff(gamma).floats() / sq[None, :]

    def canonical_grade(self, n: int) -> dict[Vec, Scaled]:
        self.ensure_grade(n)
        return self.grades[n]

    # -- independent verifier ---------------------------------------------

    def verify_selfadjoint(self, alpha, beta, i: int) -> Scaled:
        """Residual of the self-adjointness identity, reduced; all zero when the store is correct.

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
        terms = [self._carrier(diff) * (alpha[i - 1] - beta[i - 1])]
        for j in range(1, n + 1):
            if j == i:
                continue
            sig = tableaux.transposition_matrix(self.shape, i, j)
            ai, aj = alpha[i - 1], alpha[j - 1]
            bi, bj = beta[i - 1], beta[j - 1]
            # (moved from, moved to, l, factor) of each sum: sigma(i,j) on the left, then on the right
            left = [(i, j, ell, -kap) for ell in range(1, aj - ai + 1)]
            left += [(j, i, ell, kap) for ell in range(ai - aj)]
            right = [(i, j, -ell, kap) for ell in range(1, bj - bi + 1)]
            right += [(j, i, -ell, -kap) for ell in range(bi - bj)]
            terms += [sig @ self._carrier(_move(diff, a, b, ell)) * k for a, b, ell, k in left]
            terms += [self._carrier(_move(diff, a, b, ell)) @ sig * k for a, b, ell, k in right]
        return total(terms).reduced()

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        header = {
            "N": self.N,
            "shape": list(self.shape.parts),
            "kappa": str(self.kappa.value),
            "sealed_grade": self.sealed_grade,
            "basis_order": [list(t.content) for t in self.basis],
        }
        # json.dumps({"grades": [...], "header": header}, indent=1, sort_keys=True), written
        # one grade at a time so that only one grade's entry texts are alive at once
        grades = []
        for n in sorted(self.grades):
            entries = [{"gamma": list(g), "matrix": m.texts()} for g, m in sorted(self.grades[n].items())]
            grades.append(_indented({"n": n, "entries": entries}, 2))
        text = '{\n "grades": [\n  ' + ",\n  ".join(grades) + '\n ],\n "header": ' + _indented(header, 1) + "\n}"
        # write beside the target, then rename over it: a failed write leaves the old file
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError as exc:
            raise WriteFailed(f"cannot write store file {path}: {exc.strerror or exc}") from None
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path, kappa: KappaParam) -> "CoeffStore":
        """Read a saved store; raises StoreCorrupt when it does not fit the request.

        The checks are structural (layout and types, N, parameter, shape,
        basis order, grades exactly 0..sealed, the canonical indices of each,
        matrix sizes, entries "p" or "p/q" as ``Scaled.from_texts`` reads
        them); stored entries are not recomputed.
        """
        shape, value, sealed, order, grades = _read_store(path)
        if kappa.shape != shape:
            raise StoreCorrupt(f"store file was built for shape {shape.parts}, not {kappa.shape.parts}")
        store = cls(kappa)
        if kappa.value != value:
            raise StoreCorrupt(f"store file was built with parameter {value}, not {kappa.value}")
        if order != [list(t.content) for t in store.basis]:
            raise StoreCorrupt("store file uses a different basis order")
        if sealed < 0 or set(grades) != set(range(sealed + 1)):
            raise StoreCorrupt(f"store file claims sealed grade {sealed} but holds grades {sorted(grades)}")
        for n in range(sealed + 1):
            if set(grades[n]) != set(compositions.canonical_Z(store.N, n)):
                raise StoreCorrupt(f"grade {n} of the store file has the wrong indices")
        for entries in grades.values():
            for gamma, mat in entries.items():
                if mat.num.shape != (store.dim, store.dim):
                    raise StoreCorrupt(f"matrix at {list(gamma)} is not {store.dim}x{store.dim}")
        store.grades.update(grades)
        store.sealed_grade = sealed
        return store


def _read_store(path: str | Path):
    """Decode the saved layout: (shape, parameter, sealed grade, basis order, grades).

    Raises StoreCorrupt for invalid or too deeply nested JSON, missing keys,
    values of the wrong type, a matrix entry that is not "p" or "p/q" and a
    grade or an index listed twice.
    """

    def typed(val, kind):
        if type(val) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {val!r}")
        return val

    def ints(val) -> Vec:
        return tuple(typed(x, int) for x in typed(val, list))

    try:
        doc = json.loads(Path(path).read_text())
        head = doc["header"]
        shape = Partition(ints(head["shape"]))
        if typed(head["N"], int) != shape.N:
            raise ValueError(f"N = {head['N']} but the shape has {shape.N} boxes")
        value = Fraction(typed(head["kappa"], str))
        sealed = typed(head["sealed_grade"], int)
        order = [list(ints(c)) for c in typed(head["basis_order"], list)]
        grades: dict[int, dict[Vec, Scaled]] = {}
        for rec in typed(doc["grades"], list):
            n = typed(rec["n"], int)
            if n in grades:
                raise ValueError(f"grade {n} is listed twice")
            entries = grades[n] = {}
            for e in typed(rec["entries"], list):
                gamma = ints(e["gamma"])
                if gamma in entries:
                    raise ValueError(f"grade {n} lists {list(gamma)} twice")
                entries[gamma] = Scaled.from_texts(typed(e["matrix"], list))
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise StoreCorrupt(f"store file {path} is unreadable or malformed: {type(exc).__name__}: {exc}") from None
    return shape, value, sealed, order, grades


def _indented(val, depth: int) -> str:
    """json.dumps(val, indent=1, sort_keys=True) as it reads nested at the given depth."""
    return json.dumps(val, indent=1, sort_keys=True).replace("\n", "\n" + " " * depth)


def _move(gamma: Vec, i: int, j: int, ell: int) -> Vec:
    """gamma + ell*(e_i - e_j)."""
    out = list(gamma)
    out[i - 1] += ell
    out[j - 1] -= ell
    return tuple(out)
