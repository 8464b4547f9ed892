"""Sparse vector-valued Laurent polynomials and the Cherednik-Dunkl matrices.

A polynomial is a map exponent-vector -> coefficient vector, the coefficient
living in the tableau basis of the module and held as a reduced
``tableaux.Scaled``: Python ints over one positive denominator.  It is the
form in which ``nsjp`` reports a Jack polynomial and ``torusform.pair``
takes its inputs; the graph itself builds each polynomial as one integer
column (``ybgraph``).  ``cherednik_matrix`` gives U_i as one integer matrix
on the rows of such columns, a block of dim rows per exponent, so that
``ybgraph.NsjpGraph.check_eigen`` checks U_i C = C diag(xi_i) exactly on
float64 limbs by ``tableaux.int_matmul``.
"""

from __future__ import annotations

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
    def of_rows(cls, shape: Partition, kappa: KappaParam, exps, num: np.ndarray, den: int) -> "VVLaurent":
        """The polynomial sum_r x^exps[r] (x) num[r] / den, num a Python-int array with one row per exponent."""
        return cls(shape, kappa, {alpha: Scaled(row, den) for alpha, row in zip(exps, num)})

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
    mat = tableaux.rep_matrix(f.shape, w)
    return VVLaurent(
        f.shape,
        f.kappa,
        {perms.act(w, alpha): mat @ v for alpha, v in f.terms.items()},
    )


def cherednik_matrix(shape: Partition, kappa: KappaParam, exps: list[Vec], i: int) -> Scaled:
    """U_i = D_i x_i - kappa sum_{j<i} (i j) as one matrix on columns over exps, a block of dim rows per exponent.

    U_i must map exps into itself, as it does all compositions of one degree (a
    target outside raises KeyError).  With a = alpha_i + 1 and b = alpha_j, the
    column block of alpha is a I on its own row (from D_i x_i^a), kappa sigma(i j)
    times (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j) = sgn(a - b) sum of
    x_i^p x_j^(a+b-1-p) over min(a, b) <= p < max(a, b) for each j != i, and
    -kappa sigma(i j) at (i j) alpha for j < i, over den = kappa.den lcm_j sigma(i j).den.
    """
    dim, kap = shape.dim, kappa.value
    js = [j for j in range(1, shape.N + 1) if j != i]
    sigma = Scaled.stack([tableaux.transposition_matrix(shape, i, j) for j in js])
    den = kap.denominator * sigma.den
    blocks = dict(zip(js, sigma.num * kap.numerator))
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
