"""The torus Hermitian form: closed-form norms and exact pairing of polynomials.

Closed forms give the squared norms of the Jack basis directly; arbitrary
vector-valued Laurent polynomials are paired through the coefficient store,
using the exact pairing matrices G_{alpha-beta} as ``tableaux.Scaled``
carriers.  ``pair`` sums term pair by term pair, each one integer product
fv^T G gv over the product of the three denominators.  ``gram`` returns the
Gram matrix of the graph's nodes as its blocks, one integer matrix product
C_d^T (P_d C_d) per degree d, both products taken exactly by
``tableaux.int_matmul`` from one float64 product of their limbs (every
partial sum an integer below 2^53, which float64 holds exactly, so the
result is the same in any summation order and at any BLAS thread count); no
dense matrix over all the polynomials is built, and ``gram_rows`` lists the
nonzero entries of each row.  One diagonal entry per degree is checked
against ``pair``, which stays on Python-int object products as the
independent oracle.  Norms, pairings and Gram entries are ``Fraction``
scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import compositions
from .coeffs import CoeffStore
from .compositions import Vec
from .errors import SpectralCollision, VerificationFailed
from .laurent import VVLaurent
from .scalars import KappaParam
from .tableaux import RSYT, Scaled, int_matmul, norm0
from .ybgraph import NsjpGraph, exponents


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
    """One degree's part of a Gram matrix: entry (i, j) is prod[i, j] / (lp dens[i] dens[j]).

    ``prod`` is the Python-int matrix C^T (P C), ``lp`` the scale of P and
    ``dens`` the denominators of the columns of C.
    """

    prod: np.ndarray
    lp: int
    dens: list[int]

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.prod[i, j], self.lp * self.dens[i] * self.dens[j])


def gram(graph: NsjpGraph, max_degree: int, ctx: FormContext) -> list[GramBlock]:
    """Gram matrix of the Jack polynomials of degree <= max_degree, as one block per degree.

    The polynomials are the graph's nodes, degree by degree in ``build_degree``
    order.  Terms of different degree pair to zero, so the matrix is block
    diagonal, block d being C_d^T P_d C_d: C_d is ``graph.columns(d)`` and
    P_d the pairing blocks G_{alpha-beta} between the exponents of its rows,
    scaled to Python ints by one common lcm.  ``int_matmul`` takes both
    products exactly on float64 limbs, and the divisions are left to
    ``GramBlock.entry``.

    The pairwise ``pair``, on object products, is the oracle: the diagonal
    entry of the polynomial with the most terms in each block is recomputed
    with it, and a disagreement raises VerificationFailed.
    """
    n, dim = graph.shape.N, graph.shape.dim
    blocks = []
    for d in range(max_degree + 1):
        nodes, cmat, dens = graph.columns(d)
        exps = exponents(n, d)
        pmat, lp = _pairing_block(exps, ctx)
        blk = GramBlock(int_matmul(cmat.T, int_matmul(pmat, cmat)), lp, dens)
        rows = cmat.reshape(len(exps), dim, len(nodes))
        k = int(np.argmax((rows != 0).any(axis=1).sum(axis=0)))  # the column with the most terms, the first one
        f = VVLaurent.of_rows(graph.shape, graph.kappa, exps, rows[:, :, k], dens[k])
        if pair(f, f, ctx) != blk.entry(k, k):
            raise VerificationFailed(
                f"gram entry of {nodes[k].alpha}, tableau {nodes[k].t_index} differs from the pairwise form"
            )
        blocks.append(blk)
    return blocks


def gram_rows(blocks: list[GramBlock]) -> list[dict[int, Fraction]]:
    """The nonzero entries of each row of the block-diagonal matrix, as {column: value}, the blocks in order."""
    rows: list[dict[int, Fraction]] = []
    for blk in blocks:
        start = len(rows)
        rows += [{} for _ in blk.dens]
        for i, j in np.argwhere(blk.prod).tolist():
            rows[start + i][start + j] = blk.entry(i, j)
    return rows


def _pairing_block(exps: list[Vec], ctx: FormContext) -> tuple[np.ndarray, int]:
    """Integer block matrix [L G_{alpha-beta}] over exps, a block of dim rows per exponent, and its scale L."""
    dim = ctx.store.dim
    row = {alpha: r * dim for r, alpha in enumerate(exps)}
    gammas = {(a, b): tuple(x - y for x, y in zip(a, b)) for a in row for b in row}
    keys = list(set(gammas.values()))
    mats = Scaled.stack([ctx.pairing(g) for g in keys])
    ints = dict(zip(keys, mats.num))
    pmat = np.zeros((len(row) * dim, len(row) * dim), dtype=object)
    for (a, b), g in gammas.items():
        pmat[row[a] : row[a] + dim, row[b] : row[b] + dim] = ints[g]
    return pmat, mats.den
