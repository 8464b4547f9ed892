"""Helpers shared by the tests: shape lists, the triangular order, an ungated parameter, E-factors,
the affine rotation, termwise Laurent arithmetic, the termwise Dunkl and Cherednik-Dunkl operators
and the dense Gram matrix.

The package computes none of these; the tests use them to enumerate cases
and as independent formulas to check the package against.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np

from jacktorus import perms, tableaux
from jacktorus.compositions import Vec, _partitions, rank_perm, sort_desc
from jacktorus.errors import SpectralCollision
from jacktorus.laurent import VVLaurent, group_action
from jacktorus.scalars import KappaParam
from jacktorus.tableaux import RSYT, Partition, Scaled, total


def valid_shapes(n: int) -> list[Partition]:
    """All partitions of n with at least two rows and two columns."""
    return [Partition(p) for p in _partitions(n, n, n) if len(p) >= 2 and p[0] >= 2]


def unchecked_kappa(p: int, q: int, shape: tuple[int, ...]) -> KappaParam:
    """Bypass the pole gate; used to demonstrate in-recurrence pole detection."""
    part = Partition(shape)
    value = Fraction(p, q)
    return KappaParam(value, part.parts, psd_range=abs(value) < Fraction(1, part.max_hook))


def dominance_lt(alpha: Vec, beta: Vec) -> bool:
    """Partial-sum comparison: every prefix sum of alpha <= that of beta, alpha != beta."""
    if alpha == beta:
        return False
    return all(a <= b for a, b in zip(accumulate(alpha), accumulate(beta)))


def triangular_lt(alpha: Vec, beta: Vec) -> bool:
    """The strict triangular order used by the leading-term structure."""
    if sum(alpha) != sum(beta) or alpha == beta:
        return False
    ap, bp = sort_desc(alpha), sort_desc(beta)
    if ap == bp:
        return dominance_lt(alpha, beta)
    return dominance_lt(ap, bp)


def e_factor(alpha, t: RSYT, eps: int, kappa: KappaParam) -> Fraction:
    """Correction factor accumulated by sorting alpha, for eps = +1 or -1.

    May legitimately vanish on the closed boundary |kappa| = 1/h of the
    positivity window (a zero factor marks a zero-norm partition label).
    """
    alpha = tuple(alpha)
    r = rank_perm(alpha)
    kap = kappa.value
    c = t.content
    out = Fraction(1)
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if alpha[i] < alpha[j]:
                den = alpha[j] - alpha[i] + kap * (c[r[j] - 1] - c[r[i] - 1])
                if den == 0:
                    raise SpectralCollision(f"degenerate inverted pair ({i + 1},{j + 1})")
                out *= 1 + eps * kap / den
    return out


def phi(alpha: Vec) -> Vec:
    """Affine rotation (a_1, ..., a_N) -> (a_2, ..., a_N, a_1 + 1)."""
    return alpha[1:] + (alpha[0] + 1,)


def add_term(terms: dict[Vec, Scaled], alpha: Vec, v: Scaled) -> None:
    """Add v to the coefficient of x^alpha in a term map, reduced; a zero sum drops the term."""
    cur = terms.get(alpha)
    v = (v if cur is None else total([cur, v])).reduced()
    if v.num.any():
        terms[alpha] = v
    else:
        terms.pop(alpha, None)


def poly_add(f: VVLaurent, g: VVLaurent) -> VVLaurent:
    out = f.copy()
    for alpha, v in g.terms.items():
        add_term(out.terms, alpha, v)
    return out


def poly_scale(f: VVLaurent, c) -> VVLaurent:
    c = Fraction(c)
    return VVLaurent(f.shape, f.kappa, {a: v * c for a, v in f.terms.items()})


def poly_sub(f: VVLaurent, g: VVLaurent) -> VVLaurent:
    return poly_add(f, poly_scale(g, -1))


def poly_eq(f: VVLaurent, g: VVLaurent) -> bool:
    """The same exponents with equal coefficients."""
    return f.terms.keys() == g.terms.keys() and all(f.terms[a] == g.terms[a] for a in f.terms)


def dunkl(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-lowering Dunkl operator in coordinate i, term by term, on polynomial input.

    Divided differences are expanded by the geometric-sum identity

        (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j)
            = sgn(a - b) * sum of x_i^p x_j^q over p + q = a + b - 1,
              min(a,b) <= p, q <= max(a,b) - 1,

    never by polynomial division, so exactness and sparsity are preserved.
    """
    kap = f.kappa.value
    out = VVLaurent(f.shape, f.kappa)
    for alpha, v in f.terms.items():
        a_i = alpha[i - 1]
        if a_i > 0:
            add_term(out.terms, alpha[: i - 1] + (a_i - 1,) + alpha[i:], v * a_i)
        for j in range(1, f.N + 1):
            if j == i or alpha[j - 1] == a_i:
                continue
            b = alpha[j - 1]
            sv = (tableaux.transposition_matrix(f.shape, i, j) @ v) * (kap if a_i > b else -kap)
            base = list(alpha)
            for p in range(min(a_i, b), max(a_i, b)):
                base[i - 1] = p
                base[j - 1] = a_i + b - 1 - p
                add_term(out.terms, tuple(base), sv)
    return out


def cherednik(i: int, f: VVLaurent) -> VVLaurent:
    """Degree-preserving Cherednik-Dunkl operator U_i = D_i x_i - kappa sum_{j<i} (i j), term by term."""
    e_i = tuple(1 if k == i - 1 else 0 for k in range(f.N))
    out = dunkl(i, f.monomial_mul(e_i))
    kap = f.kappa.value
    for j in range(1, i):
        out = poly_add(out, poly_scale(group_action(perms.transposition(f.N, i, j), f), -kap))
    return out


def dense_gram(blocks, size: int) -> np.ndarray:
    """The size x size Fraction matrix that ``torusform.gram``'s blocks add up to, entry by entry."""
    out = np.full((size, size), Fraction(0), dtype=object)
    for blk in blocks:
        for i, a in enumerate(blk.labels):
            for j, b in enumerate(blk.labels):
                out[a, b] += blk.entry(i, j)
    return out
