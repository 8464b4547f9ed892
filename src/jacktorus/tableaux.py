"""Partitions, reverse standard Young tableaux, and the seminormal matrices.

Basis vectors of the module V are labeled by reverse standard Young
tableaux (RSYT): fillings of the Ferrers diagram with N..1 decreasing along
rows and down columns.  The content of entry i is (column - row) of its
cell; the content vector determines the tableau.  All representation
matrices are kept in the UNNORMALIZED tableau basis, so every entry is an
exact rational; the orthogonal (orthonormal-basis) matrices involve square
roots and are materialized in floating point only by the numeric modules.

Canonical basis order: content vectors in decreasing lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from . import perms
from .errors import InvalidShape
from .perms import Perm


@dataclass(frozen=True)
class Partition:
    """An integer partition with at least two rows and two columns."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 2 or parts[0] < 2 or parts[-1] < 1:
            raise InvalidShape(f"{parts}: need at least two rows and two columns")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidShape(f"{parts}: parts must be non-increasing")

    @property
    def N(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def max_hook(self) -> int:
        """Hook length of the corner cell (1,1)."""
        return self.parts[0] + len(self.parts) - 1

    def boxes(self) -> list[tuple[int, int]]:
        """All (row, col) cells, 1-based, row-major."""
        return [(r + 1, c + 1) for r, p in enumerate(self.parts) for c in range(p)]

    def hook(self, row: int, col: int) -> int:
        arm = self.parts[row - 1] - col
        leg = sum(1 for k in range(row, len(self.parts)) if self.parts[k] >= col)
        return arm + leg + 1

    def hook_product(self) -> int:
        return int(np.prod([self.hook(r, c) for r, c in self.boxes()]))

    @property
    def dim(self) -> int:
        """Number of RSYTs, by the hook length formula."""
        return factorial(self.N) // self.hook_product()


@dataclass(frozen=True)
class RSYT:
    """A reverse standard Young tableau with cached content vector."""

    rows: tuple[tuple[int, ...], ...]
    content: tuple[int, ...] = field(init=False, compare=False)
    inv: int = field(init=False, compare=False)

    def __post_init__(self):
        n = sum(len(r) for r in self.rows)
        pos = {}
        for r, row in enumerate(self.rows):
            for c, entry in enumerate(row):
                pos[entry] = (r + 1, c + 1)
        if sorted(pos) != list(range(1, n + 1)):
            raise ValueError(f"entries of {self.rows} are not 1..{n}")
        content = tuple(pos[i][1] - pos[i][0] for i in range(1, n + 1))
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if content[i] - content[j] <= -2
        )
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "inv", inv)

    @property
    def N(self) -> int:
        return len(self.content)

    def position(self, entry: int) -> tuple[int, int]:
        for r, row in enumerate(self.rows):
            if entry in row:
                return (r + 1, row.index(entry) + 1)
        raise ValueError(f"{entry} not in tableau")

    def swap_entries(self, i: int) -> "RSYT":
        """Tableau with i and i+1 interchanged (valid when |c(i)-c(i+1)| >= 2)."""
        rows = [list(r) for r in self.rows]
        for row in rows:
            for k, e in enumerate(row):
                if e == i:
                    row[k] = i + 1
                elif e == i + 1:
                    row[k] = i
        return RSYT(tuple(tuple(r) for r in rows))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@lru_cache(maxsize=None)
def enumerate_rsyt(shape: Partition) -> tuple[RSYT, ...]:
    """All RSYTs of the shape, in decreasing lexicographic content order.

    Entries are placed from N down to 1; the cells holding entries >= k
    always form a subdiagram, so each entry goes into an addable corner.
    """
    n = shape.N
    results: list[RSYT] = []

    def place(entry: int, grid: list[list[int]]):
        if entry == 0:
            results.append(RSYT(tuple(tuple(row) for row in grid)))
            return
        for r in range(shape.length):
            c = len(grid[r])
            if c < shape.parts[r] and (r == 0 or len(grid[r - 1]) > c):
                grid[r].append(entry)
                place(entry - 1, grid)
                grid[r].pop()

    place(n, [[] for _ in range(shape.length)])
    assert len(results) == shape.dim
    results.sort(key=lambda t: t.content, reverse=True)
    return tuple(results)


def t_zero(shape: Partition) -> RSYT:
    """Root tableau: N, N-1, ..., 1 entered column by column."""
    rows: list[list[int]] = [[] for _ in range(shape.length)]
    entry = shape.N
    for col in range(shape.parts[0]):
        for r in range(shape.length):
            if shape.parts[r] > col:
                rows[r].append(entry)
                entry -= 1
    return RSYT(tuple(tuple(r) for r in rows))


def norm0(t: RSYT) -> Fraction:
    """The invariant-form squared norm of the basis tableau (empty product = 1)."""
    c = t.content
    out = Fraction(1)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            if c[i] <= c[j] - 2:
                out *= 1 - Fraction(1, (c[i] - c[j]) ** 2)
    assert out > 0
    return out


@lru_cache(maxsize=None)
def norm0_diag(shape: Partition) -> tuple[Fraction, ...]:
    return tuple(norm0(t) for t in enumerate_rsyt(shape))


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def simple_reflection(shape: Partition, i: int) -> np.ndarray:
    """Matrix of s_i = (i, i+1) on the tableau basis (column = image of basis vector).

    Same row fixes the tableau, same column negates it; otherwise the pair
    {T, T with i,i+1 swapped} carries the 2x2 seminormal block with
    b = 1/(c(i) - c(i+1)).
    """
    if not 1 <= i <= shape.N - 1:
        raise IndexError(f"s_{i} out of range for N={shape.N}")
    basis = enumerate_rsyt(shape)
    index = {t.content: k for k, t in enumerate(basis)}
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=object)
    mat[:] = Fraction(0)
    for k, t in enumerate(basis):
        diff = t.content[i - 1] - t.content[i]
        if diff == 1:
            mat[k, k] = Fraction(1)
        elif diff == -1:
            mat[k, k] = Fraction(-1)
        else:
            b = Fraction(1, diff)
            k2 = index[t.swap_entries(i).content]
            if diff >= 2:
                mat[k2, k] = Fraction(1)
                mat[k, k] = b
            else:
                mat[k2, k] = 1 - b * b
                mat[k, k] = b
    return _frozen(mat)


@lru_cache(maxsize=None)
def rep_matrix(shape: Partition, w: Perm) -> np.ndarray:
    """Representation matrix of w, via a reduced word in simple reflections."""
    dim = shape.dim
    mat = np.zeros((dim, dim), dtype=object)
    mat[:] = Fraction(0)
    np.fill_diagonal(mat, Fraction(1))
    for i in perms.reduced_word(w):
        mat = mat @ simple_reflection(shape, i)
    return _frozen(mat)


def transposition_matrix(shape: Partition, i: int, j: int) -> np.ndarray:
    return rep_matrix(shape, perms.transposition(shape.N, i, j))


@lru_cache(maxsize=None)
def jucys_murphy(shape: Partition, i: int) -> np.ndarray:
    """Sum of (i,j) over j > i; diagonal with entries c(i, T) on the tableau basis."""
    if not 1 <= i <= shape.N:
        raise IndexError(f"omega_{i} out of range for N={shape.N}")
    dim = shape.dim
    mat = np.zeros((dim, dim), dtype=object)
    mat[:] = Fraction(0)
    for j in range(i + 1, shape.N + 1):
        mat = mat + transposition_matrix(shape, i, j)
    return _frozen(mat)


def identity_matrix(dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=object)
    mat[:] = Fraction(0)
    np.fill_diagonal(mat, Fraction(1))
    return mat


def valid_shapes(n: int) -> list[Partition]:
    """All partitions of n with at least two rows and two columns."""

    def parts_of(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts_of(total - first, first):
                yield (first, *rest)

    out = []
    for p in parts_of(n, n):
        if len(p) >= 2 and p[0] >= 2:
            out.append(Partition(p))
    return out
