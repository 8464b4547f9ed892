"""Sparse vector-valued Laurent polynomials and the Cherednik-Dunkl matrices.

A polynomial is a map exponent-vector -> coefficient vector, the coefficient
living in the tableau basis of the module and held as a reduced
``tableaux.Scaled``: Python ints over one positive denominator.  It is the
form in which ``nsjp`` reports a Jack polynomial and ``torusform.pair``
takes its inputs; the graph itself builds each polynomial as one integer
column (``ybgraph``).  ``cherednik_sum`` applies sum_i t_i U_i to such
columns from the structure of the U_i, so that ``ybgraph.NsjpGraph.check_eigen``
can certify every U_i C = C diag(xi_i) at once by mat-vecs on random vectors.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import diffsystem, perms, tableaux
from .perms import Perm
from .scalars import KappaParam
from .tableaux import Scaled

Vec = tuple[int, ...]


class VVLaurent:
    """Vector-valued Laurent polynomial over a fixed parameter and its shape (``kappa.shape``)."""

    __slots__ = ("kappa", "terms")

    def __init__(self, kappa: KappaParam, terms=None):
        self.kappa = kappa
        self.terms: dict[Vec, Scaled] = {}
        if terms:
            for alpha, v in dict(terms).items():
                if v.num.any():
                    self.terms[tuple(alpha)] = v.reduced()

    @classmethod
    def of_rows(cls, kappa: KappaParam, exps, num: np.ndarray, den: int) -> "VVLaurent":
        """The polynomial sum_r x^exps[r] (x) num[r] / den, num a Python-int array with one row per exponent."""
        return cls(kappa, {alpha: Scaled(row, den) for alpha, row in zip(exps, num)})

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
    mat = tableaux.rep_matrix(f.kappa.shape, w)
    return VVLaurent(f.kappa, {perms.act(w, alpha): mat @ v for alpha, v in f.terms.items()})


def cherednik_sum(kappa: KappaParam, exps, t, y: np.ndarray) -> Scaled:
    """sum_i t_i U_i y, U_i = D_i x_i - kappa sum_{j<i} (i j), y a block of dim rows per exponent of exps.

    Unit weights t = e_i give U_i y.  With a = alpha_i + 1 and b = alpha_j, U_i x^alpha (x) v is a x^alpha (x) v,
    plus kappa sigma(i j) v times (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j) = sgn(a - b) sum of x_i^p x_j^(a+b-1-p)
    over min(a, b) <= p < max(a, b) for each j != i, plus -kappa sigma(i j) v at (i j) alpha for each j < i, so each
    pair i < j needs one product sigma(i j) y (``diffsystem.sigma_stack``).  The result is over kappa.den times the
    stack's den.  U_i must map exps into itself, as it does all compositions of one degree (else KeyError).
    """
    shape, kap = kappa.shape, kappa.value
    stack, dim = diffsystem.sigma_stack(shape), shape.dim
    den, row = kap.denominator * stack.den, {alpha: r for r, alpha in enumerate(exps)}
    ys = y.reshape(len(exps), dim, -1)
    out = ((np.array(exps) + 1) @ np.array(t, dtype=object) * den)[:, None, None] * ys  # the D_i x_i^a terms
    for sigma, (i, j) in zip(stack.num[1:], itertools.combinations(range(shape.N), 2)):
        if t[i] or t[j]:
            for alpha, prod in zip(exps, (sigma.reshape(dim, dim) @ ys) * kap.numerator):
                for mine, other in ((i, j), (j, i)):
                    a, b, target, term = alpha[mine] + 1, alpha[other], list(alpha), prod * t[mine]
                    for q in range(min(a, b), max(a, b)):
                        target[mine], target[other] = q, a + b - 1 - q
                        out[row[tuple(target)]] += term if a > b else -term
                target[i], target[j] = alpha[j], alpha[i]
                out[row[tuple(target)]] -= prod * t[j]  # the group term, in U_j, the pair's larger index
    return Scaled(out.reshape(y.shape), den)
