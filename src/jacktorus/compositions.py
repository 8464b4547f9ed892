"""Multi-index combinatorics: rank permutations, orders, graded index sets.

Vectors are plain int tuples.  Compositions live in N_0^N; the graded sets
Z(N, n) collect the integer vectors summing to zero with |entries| summing
to 2n, the index grid of the torus measure's matrix Fourier coefficients.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb

from .errors import NegativeEntry, NotGraded, VerificationFailed
from .perms import Perm

Vec = tuple[int, ...]


def rank_perm(alpha: Vec) -> Perm:
    """r(i) = #{j : a_j > a_i} + #{j <= i : a_j = a_i}; sorts alpha to alpha+."""
    if any(a < 0 for a in alpha):
        raise NegativeEntry(f"{alpha}")
    return tuple(
        sum(1 for a in alpha if a > alpha[i])
        + sum(1 for j in range(i + 1) if alpha[j] == alpha[i])
        for i in range(len(alpha))
    )


def sort_desc(alpha: Vec) -> Vec:
    return tuple(sorted(alpha, reverse=True))


def phi_inverse(alpha: Vec) -> Vec:
    """Inverse of the affine rotation (a_1, ..., a_N) -> (a_2, ..., a_N, a_1 + 1)."""
    return (alpha[-1] - 1,) + alpha[:-1]


def prefix_key(alpha: Vec) -> Vec:
    """Prefix-sum tuple; its lexicographic order linearly extends dominance."""
    return tuple(accumulate(alpha))


def steps_count(alpha: Vec) -> int:
    """Number of adjacent-swap edges needed above the jump skeleton."""
    if any(a < 0 for a in alpha):
        raise NegativeEntry(f"{alpha}")
    total = 0
    n = len(alpha)
    for i in range(n):
        for j in range(i + 1, n):
            d = alpha[i] - alpha[j]
            total += abs(d) + abs(d + 1) - 1
    if total % 2:
        raise VerificationFailed(f"odd step count {total} for {alpha}")
    return total // 2


def split_pi_nu(gamma: Vec) -> tuple[Vec, Vec]:
    """gamma = pi - nu with pi = max(gamma, 0) and nu = -min(gamma, 0) entrywise."""
    pi = tuple(max(g, 0) for g in gamma)
    nu = tuple(-min(g, 0) for g in gamma)
    return pi, nu


def grade(gamma: Vec) -> int:
    if sum(gamma) != 0:
        raise NotGraded(f"{gamma} does not sum to zero")
    total = sum(abs(g) for g in gamma)
    return total // 2


def count_Z(N: int, n: int) -> int:
    """Size of the grade-n graded component, by the subset-composition count."""
    if n == 0:
        return 1
    return sum(
        comb(N, j) * comb(n - 1, j - 1) * comb(N - j + n - 1, n)
        for j in range(1, N)
    )


def count_Z_to(N: int, g: int) -> int:
    """count_Z(N, n) summed over n <= g, for N >= 1: the Ehrhart polynomial of the type-A root polytope,
    sum over k < N of C(N-1, k)^2 C(g+N-1-k, N-1) (Ardila, Beck, Hosten, Pfeifle and Seashore, 2011)."""
    return sum(comb(N - 1, k) ** 2 * comb(g + N - 1 - k, N - 1) for k in range(N))


def compositions_of(total: int, parts: int, minimum: int = 0):
    """All vectors of `parts` entries >= minimum summing to total, lexicographically."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in compositions_of(total - first, parts - 1, minimum):
            yield (first, *rest)


def enumerate_Z(N: int, n: int) -> list[Vec]:
    """All integer vectors with zero sum and absolute sum 2n, lexicographically.

    Each vector is built once, from its positive support: at most min(n, N - 1)
    positions with entries >= 1 summing to n, and entries <= 0 summing to -n
    on the rest.
    """
    if n == 0:
        return [(0,) * N]
    out: list[Vec] = []
    for k in range(1, min(n, N - 1) + 1):
        for pos in combinations(range(N), k):
            neg = [i for i in range(N) if i not in pos]
            for pvals in compositions_of(n, k, 1):
                for nvals in compositions_of(n, N - k):
                    gamma = [0] * N
                    for i, v in zip(pos, pvals):
                        gamma[i] = v
                    for i, v in zip(neg, nvals):
                        gamma[i] = -v
                    out.append(tuple(gamma))
    out.sort()
    return out


def _partitions(total: int, max_parts: int, cap: int):
    """Non-increasing vectors of at most max_parts entries in 1..cap summing to total."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


def canonical_Z(N: int, n: int) -> list[Vec]:
    """The non-increasing members of enumerate_Z(N, n), one per orbit, in its order.

    Built directly as positive partition, zeros, negated reversed partition.
    """
    if n == 0:
        return [(0,) * N]
    out = [
        pi + (0,) * (N - len(pi) - len(nu)) + tuple(-v for v in reversed(nu))
        for pi in _partitions(n, N - 1, n)
        for nu in _partitions(n, N - len(pi), n)
    ]
    out.sort()
    return out


def canonicalize(gamma: Vec) -> tuple[Vec, Perm]:
    """Non-increasing representative and the stable sorting permutation w.

    w carries gamma onto the representative: perms.act(w, gamma) == canonical,
    with ties broken by original position so w is deterministic.
    """
    if sum(gamma) != 0:
        raise NotGraded(f"{gamma} does not sum to zero")
    n = len(gamma)
    order = sorted(range(n), key=lambda k: (-gamma[k], k))
    canonical = tuple(gamma[k] for k in order)
    w = [0] * n
    for new_pos, old_pos in enumerate(order):
        w[old_pos] = new_pos + 1
    return canonical, tuple(w)

