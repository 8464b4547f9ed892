"""Sparse vector-valued Laurent polynomials and the divided-difference operators.

A polynomial is a map exponent-vector -> coefficient vector, the coefficient
living in the tableau basis of the module and held as a reduced
``tableaux.Scaled``: Python ints over one positive denominator.  The
constructor reduces every coefficient it is given; ``copy``,
``monomial_mul`` and ``e_shift`` only move terms that are already reduced,
so they keep the carriers as they are.  Those carriers are the integer
columns ``torusform.gram`` multiplies exactly on float64 limbs, every partial
sum an integer below 2^53 that float64 holds exactly, so the result is the
same in any summation order and for any BLAS thread count;
``torusform.pair`` stays on object products as the oracle.
Divided differences are expanded termwise by the geometric-sum identity

    (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j)
        = sgn(a - b) * sum of x_i^p x_j^q over p + q = a + b - 1,
          min(a,b) <= p, q <= max(a,b) - 1,

never by polynomial division, so exactness and sparsity are preserved.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import perms, tableaux
from .errors import LaurentInput
from .perms import Perm
from .scalars import KappaParam
from .tableaux import Partition, Scaled, total

Vec = tuple[int, ...]


class VVLaurent:
    """Vector-valued Laurent polynomial over a fixed shape and parameter."""

    __slots__ = ("shape", "kappa", "terms")

    def __init__(self, shape: Partition, kappa: KappaParam, terms=None):
        self.shape = shape
        self.kappa = kappa
        self.terms: dict[Vec, Scaled] = {}
        if terms:
            for alpha, v in dict(terms).items():
                if v.num.any():
                    self.terms[tuple(alpha)] = v.reduced()

    @classmethod
    def _of_reduced(cls, shape: Partition, kappa: KappaParam, terms: dict) -> "VVLaurent":
        """A polynomial on terms that are already nonzero and reduced, taken as they are."""
        out = cls(shape, kappa)
        out.terms = terms
        return out

    @classmethod
    def monomial(cls, shape: Partition, kappa: KappaParam, alpha, t_index: int) -> "VVLaurent":
        v = np.zeros(shape.dim, dtype=object)
        v[t_index] = 1
        return cls(shape, kappa, {tuple(alpha): Scaled(v, 1)})

    @property
    def N(self) -> int:
        return self.shape.N

    def is_polynomial(self) -> bool:
        return all(min(a) >= 0 for a in self.terms)

    def degrees(self) -> set[int]:
        return {sum(a) for a in self.terms}

    def copy(self) -> "VVLaurent":
        return VVLaurent._of_reduced(self.shape, self.kappa, dict(self.terms))

    def _add_term(self, alpha: Vec, v: Scaled) -> None:
        cur = self.terms.get(alpha)
        v = (v if cur is None else total([cur, v])).reduced()
        if v.num.any():
            self.terms[alpha] = v
        else:
            self.terms.pop(alpha, None)

    def __add__(self, other: "VVLaurent") -> "VVLaurent":
        out = self.copy()
        for alpha, v in other.terms.items():
            out._add_term(alpha, v)
        return out

    def __sub__(self, other: "VVLaurent") -> "VVLaurent":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "VVLaurent":
        c = Fraction(c)
        if c == 0:
            return VVLaurent(self.shape, self.kappa)
        return VVLaurent(self.shape, self.kappa, {a: v * c for a, v in self.terms.items()})

    def monomial_mul(self, beta) -> "VVLaurent":
        beta = tuple(beta)
        return VVLaurent._of_reduced(
            self.shape,
            self.kappa,
            {tuple(a + b for a, b in zip(alpha, beta)): v for alpha, v in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, VVLaurent):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[a] == other.terms[a] for a in self.terms)

    def __repr__(self) -> str:
        parts = [f"x^{list(a)} (x){v.texts()}" for a, v in sorted(self.terms.items())]
        return "VVLaurent[" + " + ".join(parts) + "]" if parts else "VVLaurent[0]"

    def to_records(self) -> list[dict]:
        return [
            {"exponent": list(alpha), "coeff": self.terms[alpha].texts()}
            for alpha in sorted(self.terms)
        ]


def group_action(w: Perm, f: VVLaurent) -> VVLaurent:
    """x^a (x) v  ->  x^{w.a} (x) sigma(w) v."""
    if perms.is_identity(w):
        return f.copy()
    mat = tableaux.rep_matrix(f.shape, w)
    return VVLaurent(
        f.shape,
        f.kappa,
        {perms.act(w, alpha): mat @ v for alpha, v in f.terms.items()},
    )


def e_shift(m: int, f: VVLaurent) -> VVLaurent:
    """Multiply by the m-th power of x_1 x_2 ... x_N (m may be negative).

    m = 0 returns f itself: polynomials are never mutated after construction.
    """
    if m == 0:
        return f
    return f.monomial_mul((m,) * f.N)


def dunkl(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-lowering Dunkl operator in coordinate i on polynomial input."""
    if not f.is_polynomial():
        raise LaurentInput("Dunkl operator is defined on polynomials only")
    n = f.N
    kap = f.kappa.value
    out = VVLaurent(f.shape, f.kappa)
    for alpha, v in f.terms.items():
        a_i = alpha[i - 1]
        if a_i > 0:
            out._add_term(alpha[: i - 1] + (a_i - 1,) + alpha[i:], v * a_i)
        for j in range(1, n + 1):
            if j == i or alpha[j - 1] == alpha[i - 1]:
                continue
            a, b = alpha[i - 1], alpha[j - 1]
            sv = (tableaux.transposition_matrix(f.shape, i, j) @ v) * (kap if a > b else -kap)
            base = list(alpha)
            for p in range(min(a, b), max(a, b)):
                base[i - 1] = p
                base[j - 1] = a + b - 1 - p
                out._add_term(tuple(base), sv)
    return out


def cherednik(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-preserving Cherednik-Dunkl operator U_i."""
    if not f.is_polynomial():
        raise LaurentInput("Cherednik-Dunkl operator is defined on polynomials only")
    e_i = tuple(1 if k == i - 1 else 0 for k in range(f.N))
    out = dunkl(i, f.monomial_mul(e_i))
    kap = f.kappa.value
    for j in range(1, i):
        out = out + group_action(perms.transposition(f.N, i, j), f).scale(-kap)
    return out

