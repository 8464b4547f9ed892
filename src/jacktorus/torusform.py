"""The torus Hermitian form: closed-form norms and exact pairing of polynomials.

Closed forms give the squared norms of the Jack basis directly; arbitrary
vector-valued Laurent polynomials are paired through the coefficient store,
using the exact pairing matrices G_{alpha-beta} as ``tableaux.Scaled``
carriers.  ``pair`` sums term pair by term pair, each one integer product
fv^T G gv over the product of the three denominators.  ``gram`` returns a
Gram matrix as its blocks, one integer matrix product C^T (P C) per degree,
both products taken exactly by ``tableaux.int_matmul`` from one float64
product of their limbs (every partial sum an integer below 2^53, which
float64 holds exactly, so the result is the same in any summation order and
at any BLAS thread count); no dense matrix over all the polynomials is
built, and ``gram_rows`` adds the blocks up into the nonzero entries of each
row.  One diagonal entry per degree is checked against ``pair``, which stays
on Python-int object products as the independent oracle.  Norms, pairings
and Gram entries are ``Fraction`` scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import compositions
from .coeffs import CoeffStore
from .compositions import Vec
from .errors import SpectralCollision, VerificationFailed
from .laurent import columns
from .scalars import KappaParam
from .tableaux import RSYT, Scaled, int_matmul, norm0
from .ybgraph import NsjpGraph


def norm_partition(lam, t: RSYT, kappa: KappaParam) -> Fraction:
    """Squared torus norm of the Jack polynomial at a partition label.

    <T,T>_0 * prod_{i<j} prod_{l=1}^{lam_i - lam_j}
        (1 - (k / (l + k(c(i,T) - c(j,T))))^2),
    the product of ``nsjp_norm``, which strikes no factor at a partition label.
    """
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not a partition")
    return nsjp_norm(lam, t, kappa)


def nsjp_norm(alpha, t: RSYT, kappa: KappaParam) -> Fraction:
    """Squared torus norm at an arbitrary composition label.

    Equal to norm_partition(alpha+, T) / (E_1 E_-1) wherever the E-product
    is nonzero, but computed with the common factors cancelled exactly: each
    inverted pair of alpha strikes the top factor of the matching rank pair
    in the partition product.  That keeps the value finite on the closed
    boundary of the positivity window, where both sides of the quotient
    acquire the same zero.
    """
    alpha = tuple(alpha)
    r = compositions.rank_perm(alpha)
    lam = compositions.sort_desc(alpha)
    n = len(alpha)
    struck = set()
    for i in range(n):
        for j in range(i + 1, n):
            if alpha[i] < alpha[j]:
                struck.add((r[j], r[i]))  # rank pair, already i' < j'
    kap = kappa.value
    c = t.content
    out = norm0(t)
    for i in range(n):
        for j in range(i + 1, n):
            top = lam[i] - lam[j]
            if (i + 1, j + 1) in struck:
                top -= 1
            dc = c[i] - c[j]
            for ell in range(1, top + 1):
                den = ell + kap * dc
                if den == 0:
                    raise SpectralCollision(
                        f"norm factor pole at l={ell}, content gap {dc}"
                    )
                out *= 1 - (kap / den) ** 2
    return out


@dataclass
class FormContext:
    """Pairing context bound to a sealed-enough coefficient store."""

    store: CoeffStore
    _gcache: dict[Vec, Scaled] = field(default_factory=dict, repr=False)

    def pairing(self, gamma: Vec) -> Scaled:
        mat = self._gcache.get(gamma)
        if mat is None:
            mat = self.store.pairing_matrix(gamma)
            self._gcache[gamma] = mat
        return mat


def pair(f, g, ctx: FormContext) -> Fraction:
    """Exact Hermitian pairing; real coefficients so conjugation is trivial.

    Each term pair reads G_{alpha-beta}, which a common shift of both
    polynomials leaves unchanged, so Laurent inputs pair as they are.
    """
    total = Fraction(0)
    for alpha, fv in f.terms.items():
        for beta, gv in g.terms.items():
            if sum(alpha) != sum(beta):
                continue
            mat = ctx.pairing(tuple(a - b for a, b in zip(alpha, beta)))
            total += Fraction(fv.num @ mat.num @ gv.num, fv.den * mat.den * gv.den)
    return total


@dataclass(frozen=True)
class GramBlock:
    """One degree's part of a Gram matrix: entry (i, j) is prod[i, j] / (lp scales[i] scales[j]).

    ``labels`` are the positions in the node list of its polynomials, ``prod``
    the Python-int matrix C^T (P C), ``lp`` the scale of P and ``scales`` the
    scales of the columns of C.
    """

    labels: list[int]
    prod: np.ndarray
    lp: int
    scales: list[int]

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.prod[i, j], self.lp * self.scales[i] * self.scales[j])


def gram(graph: NsjpGraph, nodes, ctx: FormContext) -> list[GramBlock]:
    """Gram matrix of Jack polynomials at the given (alpha, tableau) labels, as one block per degree.

    Terms of different degree pair to zero, so the matrix is the sum over
    degrees d of C_d^T P_d C_d: C_d is ``laurent.columns`` of the degree-d
    terms, and P_d the pairing blocks G_{alpha-beta} between their exponents,
    scaled to Python ints by one common lcm.  ``int_matmul`` takes both
    products exactly on float64 limbs, and the divisions are left to
    ``GramBlock.entry``.  A polynomial with terms of several degrees sits in
    several blocks, whose entries add (``gram_rows``).  The pairing depends
    only on alpha - beta, so Laurent labels need no shift.

    The pairwise ``pair``, on object products, is the oracle: the diagonal
    entry of the polynomial with the most terms in each degree block is
    recomputed with it, and a disagreement raises VerificationFailed.
    """
    polys = [graph.nsjp_laurent(alpha, t) for alpha, t in nodes]
    # degree -> {polynomial index: its terms of that degree}
    parts: dict[int, dict[int, dict[Vec, Scaled]]] = {}
    for a, f in enumerate(polys):
        for alpha, v in f.terms.items():
            parts.setdefault(sum(alpha), {}).setdefault(a, {})[alpha] = v
    blocks = []
    for cols in parts.values():
        exps, cmat, scales = columns(list(cols.values()), ctx.store.dim)
        pmat, lp = _pairing_block(exps, ctx)
        blocks.append(GramBlock(list(cols), int_matmul(cmat.T, int_matmul(pmat, cmat)), lp, scales))
    for a in sorted({max(cols, key=lambda a: (len(cols[a]), -a)) for cols in parts.values()}):
        diagonal = sum(blk.entry(i, i) for blk in blocks for i, b in enumerate(blk.labels) if b == a)
        if pair(polys[a], polys[a], ctx) != diagonal:
            alpha, t = nodes[a]
            raise VerificationFailed(
                f"gram entry of {tuple(alpha)}, tableau {t} differs from the pairwise form"
            )
    return blocks


def gram_rows(blocks: list[GramBlock], size: int) -> list[dict[int, Fraction]]:
    """The nonzero entries of each row of the size x size matrix that the blocks add up to, as {column: value}."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(size)]
    for blk in blocks:
        for i, j in zip(*np.nonzero(blk.prod)):
            a, b = blk.labels[i], blk.labels[j]
            rows[a][b] = rows[a].get(b, 0) + blk.entry(i, j)
    return [{b: v for b, v in row.items() if v} for row in rows]


def _pairing_block(exps: list[Vec], ctx: FormContext) -> tuple[np.ndarray, int]:
    """Integer block matrix [L G_{alpha-beta}] over exps, laid out as ``laurent.columns``, and its scale L."""
    dim = ctx.store.dim
    row = {alpha: r * dim for r, alpha in enumerate(exps)}
    gammas = {(a, b): tuple(x - y for x, y in zip(a, b)) for a in row for b in row}
    mats = {g: ctx.pairing(g) for g in set(gammas.values())}
    lp = math.lcm(*(m.den for m in mats.values()))
    ints = {g: m.num * (lp // m.den) for g, m in mats.items()}
    pmat = np.zeros((len(row) * dim, len(row) * dim), dtype=object)
    for (a, b), g in gammas.items():
        pmat[row[a] : row[a] + dim, row[b] : row[b] + dim] = ints[g]
    return pmat, lp
