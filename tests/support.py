"""Helpers shared by the tests: shape lists, the triangular order, an ungated parameter, E-factors.

The package computes none of these; the tests use them to enumerate cases
and as independent formulas to check the package against.
"""

from fractions import Fraction
from itertools import accumulate

from jacktorus.compositions import Vec, _partitions, rank_perm, sort_desc
from jacktorus.errors import SpectralCollision
from jacktorus.scalars import KappaParam
from jacktorus.tableaux import RSYT, Partition


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
