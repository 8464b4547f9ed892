"""The torus Hermitian form: closed-form norms and exact pairing of polynomials.

Closed forms give the squared norms of the Jack basis directly; arbitrary
vector-valued Laurent polynomials are paired through the coefficient store,
using the exact pairing matrices G_{alpha-beta} as ``tableaux.Scaled``
carriers.  ``pair`` sums term pair by term pair, each one integer product
fv^T G gv over the product of the three denominators.  ``gram`` certifies,
degree by degree, that the Gram matrix of the graph's nodes is the diagonal
of closed-form norms, by ``tableaux.failing_columns`` on random vectors, and
computes in full only the columns that fail; ``pair``, on its own object
products, is the independent oracle of one diagonal entry per degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import compositions, tableaux
from .coeffs import CoeffStore
from .compositions import Vec
from .errors import SpectralCollision, VerificationFailed
from .laurent import VVLaurent
from .scalars import KappaParam
from .tableaux import RSYT, Scaled, failing_columns, norm0
from .ybgraph import NsjpGraph, exponents


def nsjp_norm(alpha, t: RSYT, kappa: KappaParam) -> Fraction:
    """Squared torus norm at an arbitrary composition label.

    At a partition label lam it is the closed form <T,T>_0 * prod_{i<j}
    prod_{l=1}^{lam_i - lam_j} (1 - (k / (l + k(c(i,T) - c(j,T))))^2).
    Elsewhere it equals the norm at alpha+ over E_1 E_-1 wherever the
    E-product is nonzero, but computed with the common factors cancelled
    exactly: each inverted pair of alpha strikes the top factor of the
    matching rank pair in the partition product.  That keeps the value finite
    on the closed boundary of the positivity window, where both sides of the
    quotient acquire the same zero.  For kappa = p/q a factor is
    (m - p)(m + p) / m^2, m = q l + p dc, so the product is taken in integers.
    """
    alpha = tuple(alpha)
    n, r, lam = len(alpha), compositions.rank_perm(alpha), compositions.sort_desc(alpha)
    # the rank pairs, already i' < j', of the inverted pairs of alpha
    struck = {(r[j], r[i]) for i in range(n) for j in range(i + 1, n) if alpha[i] < alpha[j]}
    p, q = kappa.value.numerator, kappa.value.denominator
    c = t.content
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            dc = c[i] - c[j]
            for ell in range(1, lam[i] - lam[j] - ((i + 1, j + 1) in struck) + 1):
                m = q * ell + p * dc
                if m == 0:
                    raise SpectralCollision(f"norm factor pole at l={ell}, content gap {dc}")
                num *= (m - p) * (m + p)
                den *= m * m
    return norm0(t) * Fraction(num, den)


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
    polynomials leaves unchanged, so Laurent inputs pair as they are.  Products are summed per denominator.
    """
    sums: dict[int, int] = {}
    for alpha, fv in f.terms.items():
        for beta, gv in g.terms.items():
            if sum(alpha) == sum(beta):
                mat = ctx.pairing(tuple(a - b for a, b in zip(alpha, beta)))
                den = fv.den * mat.den * gv.den
                sums[den] = sums.get(den, 0) + fv.num @ mat.num @ gv.num
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


def gram(graph: NsjpGraph, max_degree: int, ctx: FormContext, seed: int = 0) -> tuple[list, list, int, bool]:
    """The Gram matrix of the Jack polynomials of degree <= max_degree, ctx.store sealed to max_degree first.

    Returns (labels, rows, offdiagonal_nonzero, norms_match): the (alpha,
    tableau index) of each polynomial, the nonzero entries of each row as
    {column: value}, the number of nonzero off-diagonal entries and whether
    the diagonal is the closed-form norms.  The polynomials are the graph's
    nodes, degree by degree in ``build_degree`` order.  Terms of different
    degree pair to zero, so the matrix is block diagonal, block d being
    C_d^T P_d C_d over lp dens_i dens_j: C_d is ``graph.columns(d)``, dens
    its denominators and P_d the pairing blocks G_{alpha-beta} between the
    exponents of its rows, scaled to Python ints by one common lcm lp.
    ``_gram_block`` certifies the columns that are their ``nsjp_norm`` on the
    diagonal, on vectors drawn from random.Random(seed), and computes the
    others in full, so nothing returned depends on the seed.

    The pairwise ``pair``, on object products, is the oracle: the diagonal
    entry of the polynomial with the most terms in each block is recomputed
    with it, and a disagreement raises VerificationFailed.
    """
    ctx.store.ensure_grade(max_degree)
    n, dim, rng = graph.shape.N, graph.shape.dim, random.Random(seed)
    labels, rows, offdiagonal, norms_match = [], [], 0, True
    for d in range(max_degree + 1):
        nodes, cmat, dens = graph.columns(d)
        exps = exponents(n, d)
        pmat, lp = _pairing_block(exps, ctx)
        norms = [nsjp_norm(node.alpha, node.tableau, graph.kappa) for node in nodes]
        computed = _gram_block(cmat, pmat, lp, dens, norms, rng)
        start = len(rows)
        labels += [(node.alpha, node.t_index) for node in nodes]
        rows += [{} for _ in nodes]
        for j, norm in enumerate(norms):
            col = computed.get(j, {j: norm} if norm else {})
            for i, v in col.items():
                rows[start + i][start + j] = v
            offdiagonal += len(col) - (j in col)
            norms_match = norms_match and col.get(j, 0) == norm
        block = cmat.reshape(len(exps), dim, len(nodes))
        k = int(np.argmax((block != 0).any(axis=1).sum(axis=0)))  # the column with the most terms, the first one
        f = VVLaurent.of_rows(graph.kappa, exps, block[:, :, k], dens[k])
        if pair(f, f, ctx) != rows[start + k].get(start + k, 0):
            raise VerificationFailed(
                f"gram entry of {nodes[k].alpha}, tableau {nodes[k].t_index} differs from the pairwise form"
            )
    return labels, rows, offdiagonal, norms_match


def _gram_block(cmat: np.ndarray, pmat: np.ndarray, lp: int, dens: list[int], norms: list[Fraction], rng) -> dict:
    """The columns j of C^T P C / (lp dens_i dens_j) that are not norms[j] e_j, as {j: {i: nonzero entry}}."""
    w = np.array([norm * (lp * den * den) for norm, den in zip(norms, dens)], dtype=object)[:, None]
    bad = failing_columns(lambda x: _gram_times(cmat, pmat, x), lambda x: w * x, len(dens), rng)
    cols = _gram_times(cmat, pmat, np.eye(len(dens), dtype=object)[:, bad]).T if bad else []
    return {j: {i: Fraction(x, lp * dens[i] * dens[j]) for i, x in enumerate(col) if x} for j, col in zip(bad, cols)}


def _gram_times(cmat: np.ndarray, pmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C^T (P (C x)): the block's integer Gram matrix times each column of x, by three mat-vec products."""
    return cmat.T @ (pmat @ (cmat @ x))


def _pairing_block(exps: list[Vec], ctx: FormContext) -> tuple[np.ndarray, int]:
    """Integer block matrix [L G_{alpha-beta}] over exps, a block of dim rows per exponent, and its scale L.

    Every G_gamma missing from ctx's cache is taken as sigma(w)^T G_can sigma(w),
    can = w.gamma in the store's canonical grades (as sigma(w)^T D sigma(w) = D),
    in one stacked product, and left there, reduced, for ``pair``.
    """
    store, n = ctx.store, len(exps)
    e = np.array(exps, dtype=np.int64).reshape(n, -1)
    keys, index = np.unique((e[:, None] - e[None, :]).reshape(n * n, -1), axis=0, return_inverse=True)
    keys = [tuple(g) for g in keys.tolist()]
    # G_{-gamma} = G_gamma^T: of each missing pair gamma, -gamma the larger one is computed
    new = sorted({max(g, tuple(-x for x in g)) for g in keys if g not in ctx._gcache})
    if new:
        cans = [compositions.canonicalize(g) for g in new]
        sigmas = [tableaux.rep_matrix(store.shape, w) for _, w in cans]
        carriers = [store.canonical_grade(compositions.grade(can))[can] for can, _ in cans]
        norms = tableaux.norm_matrix(store.shape)
        sig = np.stack([m.num for m in sigmas])
        mats = sig.transpose(0, 2, 1) @ (np.diagonal(norms.num)[:, None] * np.stack([m.num for m in carriers])) @ sig
        for g, mat, s, c in zip(new, mats, sigmas, carriers):
            mat = Scaled(mat, s.den * s.den * c.den * norms.den).reduced()
            ctx._gcache[tuple(-x for x in g)] = mat.T
            ctx._gcache[g] = mat
    mats = Scaled.stack([ctx._gcache[g] for g in keys])
    return mats.num[index.reshape(n, n)].transpose(0, 2, 1, 3).reshape(n * store.dim, -1), mats.den
