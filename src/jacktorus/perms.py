"""Permutations of {1..N} in one-line notation.

A permutation w is the tuple (w(1), ..., w(N)).  The action on integer
vectors is (w.a)_i = a_{w^{-1}(i)}, so that sorting permutations carry a
vector onto its rearrangement, and the product w1*w2 is the composition
w1(w2(.)).
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_identity(w: Perm) -> bool:
    return all(w[i] == i + 1 for i in range(len(w)))


def compose(w1: Perm, w2: Perm) -> Perm:
    """(w1*w2)(i) = w1(w2(i))."""
    return tuple(w1[w2[i] - 1] for i in range(len(w2)))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def transposition(n: int, i: int, j: int) -> Perm:
    """The transposition (i, j); (i, i) is the identity."""
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def simple(n: int, i: int) -> Perm:
    """Adjacent transposition s_i = (i, i+1), for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"s_{i} undefined for N={n}")
    return transposition(n, i, i + 1)


def cycle(n: int) -> Perm:
    """The N-cycle (1 2 ... N): i -> i+1, N -> 1."""
    return tuple(list(range(2, n + 1)) + [1])


def act(w: Perm, a: tuple) -> tuple:
    """Permuted vector with (w.a)_{w(i)} = a_i."""
    out = [None] * len(a)
    for i, ai in enumerate(a):
        out[w[i] - 1] = ai
    return tuple(out)

