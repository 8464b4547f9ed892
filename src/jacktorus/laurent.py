"""Sparse vector-valued Laurent polynomials, their integer columns and the Cherednik-Dunkl matrices.

A polynomial is a map exponent-vector -> coefficient vector, the coefficient
living in the tableau basis of the module and held as a reduced
``tableaux.Scaled``: Python ints over one positive denominator.  The
constructor reduces every coefficient it is given; ``copy``,
``monomial_mul`` and ``e_shift`` only move terms that are already reduced,
so they keep the carriers as they are.  ``columns`` lays the terms of one
degree out as one integer matrix C (a row block per exponent, a column per
polynomial) and ``cherednik_matrix`` gives U_i on those rows as one integer
matrix: ``torusform.gram`` pairs C as C^T (P C) and
``ybgraph.NsjpGraph.check_eigen`` checks U_i C = C diag(xi_i), both exactly
on float64 limbs by ``tableaux.int_matmul``.
"""

from __future__ import annotations

import math

import numpy as np

from . import perms, tableaux
from .perms import Perm
from .scalars import KappaParam
from .tableaux import Partition, Scaled

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

    def copy(self) -> "VVLaurent":
        return VVLaurent._of_reduced(self.shape, self.kappa, dict(self.terms))

    def monomial_mul(self, beta) -> "VVLaurent":
        beta = tuple(beta)
        return VVLaurent._of_reduced(
            self.shape,
            self.kappa,
            {tuple(a + b for a, b in zip(alpha, beta)): v for alpha, v in self.terms.items()},
        )

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


def columns(parts: list[dict[Vec, Scaled]], dim: int) -> tuple[list[Vec], np.ndarray, list[int]]:
    """Term maps of one degree as integer columns, one per map.

    Returns the sorted union of their exponents, the Python-int matrix with
    one block of dim rows per exponent, and each column's scale: the lcm of
    its denominators, which its entries are multiplied by.
    """
    exps = sorted({alpha for terms in parts for alpha in terms})
    row = {alpha: r * dim for r, alpha in enumerate(exps)}
    cmat = np.zeros((len(exps) * dim, len(parts)), dtype=object)
    scales = [math.lcm(*(v.den for v in terms.values())) for terms in parts]
    for c, terms in enumerate(parts):
        for alpha, v in terms.items():
            cmat[row[alpha] : row[alpha] + dim, c] = v.num * (scales[c] // v.den)
    return exps, cmat, scales


def cherednik_matrix(shape: Partition, kappa: KappaParam, exps: list[Vec], i: int) -> Scaled:
    """U_i = D_i x_i - kappa sum_{j<i} (i j) as one matrix on the rows of ``columns`` over exps.

    U_i must map exps into itself, as it does all compositions of one degree (a
    target outside raises KeyError).  With a = alpha_i + 1 and b = alpha_j, the
    column block of alpha is a I on its own row (from D_i x_i^a), kappa sigma(i j)
    times (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j) = sgn(a - b) sum of
    x_i^p x_j^(a+b-1-p) over min(a, b) <= p < max(a, b) for each j != i, and
    -kappa sigma(i j) at (i j) alpha for j < i, over den = kappa.den lcm_j sigma(i j).den.
    """
    dim, kap = shape.dim, kappa.value
    sigma = {j: tableaux.transposition_matrix(shape, i, j) for j in range(1, shape.N + 1) if j != i}
    den = kap.denominator * math.lcm(*(m.den for m in sigma.values()))
    blocks = {j: m.num * (kap.numerator * (den // (kap.denominator * m.den))) for j, m in sigma.items()}
    row = {alpha: r * dim for r, alpha in enumerate(exps)}
    out = np.diag(np.array([(alpha[i - 1] + 1) * den for alpha in exps for _ in range(dim)], dtype=object))
    for alpha, c in row.items():
        a = alpha[i - 1] + 1
        for j, block in blocks.items():
            b = alpha[j - 1]
            target = list(alpha)
            for p in range(min(a, b), max(a, b)):
                target[i - 1], target[j - 1] = p, a + b - 1 - p
                r = row[tuple(target)]
                out[r : r + dim, c : c + dim] += block if a > b else -block
            if j < i:
                r = row[perms.act(perms.transposition(shape.N, i, j), alpha)]
                out[r : r + dim, c : c + dim] -= block
    return Scaled(out, den)
