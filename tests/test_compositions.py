from itertools import permutations as iter_perms

import pytest
from hypothesis import given, strategies as st

from jacktorus import perms
from jacktorus.compositions import (
    canonical_Z,
    canonicalize,
    compositions_of,
    count_Z,
    enumerate_Z,
    grade,
    phi_inverse,
    prefix_key,
    rank_perm,
    sort_desc,
    split_pi_nu,
    steps_count,
)
from jacktorus.errors import BadSupport, NegativeEntry, NotGraded
from support import dominance_lt, phi, triangular_lt


def minimal_gamma(nu: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Triangular-minimal vector among those with fixed negative part nu.

    nu must vanish exactly on positions 1..k and be positive afterwards;
    the positive part spreads n = |nu| as evenly as possible over 1..k.
    """
    n = sum(nu)
    N = len(nu)
    if k < 1 or k >= N:
        raise BadSupport(f"k={k} out of range for N={N}")
    if any(nu[i] != 0 for i in range(k)) or any(nu[i] <= 0 for i in range(k, N)):
        raise BadSupport(f"{nu} must vanish exactly on positions 1..{k}")
    p, m = divmod(n, k)
    head = [p + 1] * m + [p] * (k - m)
    return tuple(head) + tuple(-nu[i] for i in range(k, N))


vectors = st.lists(st.integers(0, 6), min_size=2, max_size=6).map(tuple)


def test_rank_perm_worked_example():
    assert rank_perm((1, 2, 1, 4)) == (3, 2, 4, 1)
    assert perms.act(rank_perm((1, 2, 1, 4)), (1, 2, 1, 4)) == (4, 2, 1, 1)


def test_rank_perm_partition_is_identity():
    assert rank_perm((5, 3, 3, 1)) == (1, 2, 3, 4)


def test_rank_perm_jump_example():
    assert rank_perm((0, 3, 5, 0)) == (3, 2, 1, 4)


def test_rank_perm_rejects_negative():
    with pytest.raises(NegativeEntry):
        rank_perm((1, -1))


def test_phi_example():
    alpha = (0, 3, 5, 0)
    assert phi(alpha) == (3, 5, 0, 1)
    assert rank_perm(phi(alpha)) == (2, 1, 4, 3)
    assert phi((0, 0, 0)) == (0, 0, 1)


@given(vectors)
def test_phi_bijective(alpha):
    assert phi_inverse(phi(alpha)) == alpha


@given(vectors)
def test_rank_of_phi(alpha):
    w0 = perms.cycle(len(alpha))
    assert rank_perm(phi(alpha)) == perms.compose(rank_perm(alpha), w0)


@given(vectors, st.data())
def test_rank_of_adjacent_swap(alpha, data):
    i = data.draw(st.integers(1, len(alpha) - 1))
    if alpha[i - 1] == alpha[i]:
        return
    swapped = list(alpha)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    assert rank_perm(tuple(swapped)) == perms.compose(
        rank_perm(alpha), perms.simple(len(alpha), i)
    )


def test_triangular_examples():
    assert triangular_lt((3, 2, 1), (0, 2, 4))
    assert triangular_lt((0, 2, 4), (4, 0, 2))
    assert not triangular_lt((4, 1, 1), (3, 3, 0))
    assert not triangular_lt((3, 3, 0), (4, 1, 1))
    assert not triangular_lt((2, 1), (2, 1))


@given(vectors, vectors, vectors)
def test_triangular_is_strict_partial_order(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    assert not triangular_lt(a, a)
    if triangular_lt(a, b) and triangular_lt(b, c):
        assert triangular_lt(a, c)
    if triangular_lt(a, b):
        assert not triangular_lt(b, a)


def enumerate_Z_by_masks(N: int, n: int) -> list[tuple[int, ...]]:
    """Oracle: the vectors of every sign mask of the N positions, sorted."""
    if n == 0:
        return [(0,) * N]
    out = []
    for mask in range(1, 2**N - 1):
        pos = [i for i in range(N) if mask & (1 << i)]
        neg = [i for i in range(N) if not mask & (1 << i)]
        if len(pos) > n:
            continue
        for pvals in compositions_of(n, len(pos), 1):
            for nvals in compositions_of(n, len(neg)):
                gamma = [0] * N
                for i, v in zip(pos, pvals):
                    gamma[i] = v
                for i, v in zip(neg, nvals):
                    gamma[i] = -v
                out.append(tuple(gamma))
    out.sort()
    return out


@pytest.mark.parametrize("N", range(1, 8))
def test_enumerate_Z_matches_the_mask_oracle(N):
    # the order matters too: phase sums pair gammas[k] with gammas[-1 - k] == -gammas[k]
    for n in range(0, 5):
        assert enumerate_Z(N, n) == enumerate_Z_by_masks(N, n)


def test_enumerate_Z_grade_one():
    got = set(enumerate_Z(3, 1))
    expect = {p for base in [(1, -1, 0)] for p in iter_perms(base)}
    assert got == expect and len(got) == 6


def test_enumerate_Z_n_zero():
    assert enumerate_Z(4, 0) == [(0, 0, 0, 0)]


def test_enumerate_Z_sorted_lex():
    out = enumerate_Z(4, 2)
    assert out == sorted(out)
    assert len(out) == len(set(out))


@pytest.mark.parametrize("N", range(2, 7))
def test_canonical_Z_is_the_sorted_part_of_enumerate_Z(N):
    for n in range(0, 6):
        assert canonical_Z(N, n) == [g for g in enumerate_Z(N, n) if g == sort_desc(g)]


@pytest.mark.parametrize(
    "N,n,expect",
    [(2, 5, 2), (3, 4, 24), (4, 3, 92), (5, 2, 110)],
)
def test_count_closed_forms(N, n, expect):
    # 2, 6n, 10n^2 + 2, (5n/3)(7n^2 + 5)
    assert count_Z(N, n) == expect


@pytest.mark.parametrize("N", range(2, 7))
def test_count_matches_enumeration(N):
    for n in range(0, 6):
        assert count_Z(N, n) == len(enumerate_Z(N, n))


def test_steps_count_examples():
    assert steps_count((1, 0)) == 1
    assert steps_count((0, 1)) == 0
    assert steps_count((3, 3, 3)) == 0
    assert steps_count((1, 0, 0)) == 2


def test_split_pi_nu():
    pi, nu = split_pi_nu((2, 0, -1, -1))
    assert pi == (2, 0, 0, 0) and nu == (0, 0, 1, 1)


def test_canonicalize_examples():
    can, w = canonicalize((-1, 2, -1))
    assert can == (2, -1, -1)
    assert perms.act(w, (-1, 2, -1)) == can
    can, w = canonicalize((1, -1, 0))
    assert can == (1, 0, -1)
    assert perms.act(w, (1, -1, 0)) == can
    can, w = canonicalize((3, 1, -4))
    assert can == (3, 1, -4) and perms.is_identity(w)


def test_canonicalize_stable_on_ties():
    _, w1 = canonicalize((0, 1, -1, 0))
    _, w2 = canonicalize((0, 1, -1, 0))
    assert w1 == w2


def test_canonicalize_rejects_nonzero_sum():
    with pytest.raises(NotGraded):
        canonicalize((1, 0, 0))
    with pytest.raises(NotGraded):
        grade((2, -1))


def test_minimal_gamma_examples():
    assert minimal_gamma((0, 0, 1, 2), 2) == (2, 1, -1, -2)
    assert minimal_gamma((0, 0, 4), 2) == (2, 2, -4)
    with pytest.raises(BadSupport):
        minimal_gamma((1, 0, 1), 2)


@pytest.mark.parametrize("N,n", [(3, 3), (4, 3), (5, 4)])
def test_minimal_gamma_is_triangular_minimal(N, n):
    """Exhaustive oracle: minimal among the partition-headed gamma sharing its
    negative part (the set the graded recurrence actually processes)."""
    for gamma in enumerate_Z(N, n):
        pi, nu = split_pi_nu(gamma)
        k = sum(1 for v in nu if v == 0)
        if any(nu[i] != 0 for i in range(k)):
            continue  # negative support not a suffix
        g0 = minimal_gamma(nu, k)
        heads = [
            split_pi_nu(g)[0]
            for g in enumerate_Z(N, n)
            if split_pi_nu(g)[1] == nu and split_pi_nu(g)[0] == sort_desc(split_pi_nu(g)[0])
        ]
        pi0 = split_pi_nu(g0)[0]
        assert pi0 in heads
        for head in heads:
            assert head == pi0 or not triangular_lt(head, pi0)


@given(vectors)
def test_prefix_key_extends_dominance(alpha):
    beta = sort_desc(alpha)
    if alpha != beta:
        assert dominance_lt(alpha, beta)
        assert prefix_key(alpha) < prefix_key(beta)
