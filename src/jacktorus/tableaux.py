"""Partitions, reverse standard Young tableaux, and the seminormal matrices.

Basis vectors of the module V are labeled by reverse standard Young
tableaux (RSYT): fillings of the Ferrers diagram with N..1 decreasing along
rows and down columns.  The content of entry i is (column - row) of its
cell; the content vector determines the tableau.  All representation
matrices are kept in the UNNORMALIZED tableau basis, so every entry is an
exact rational; the orthogonal (orthonormal-basis) matrices involve square
roots and are materialized in floating point only by the numeric modules.
Every representation, coefficient and pairing matrix and every coefficient
vector of the package is a ``Scaled``: one read-only Python-int array over
one positive denominator.  ``Fraction``
entries enter only through ``Scaled.of`` (the seminormal entries, the norm
diagonal).  Text is integer "p/q": ``Scaled.texts`` writes it and
``Scaled.from_texts`` reads it back, with no ``Fraction`` in between.

Canonical basis order: content vectors in decreasing lexicographic order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import perms
from .errors import InvalidShape, VerificationFailed
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
        return math.prod(self.hook(r, c) for r, c in self.boxes())

    @cached_property
    def dim(self) -> int:
        """Number of RSYTs, by the hook length formula; computed once per partition."""
        return math.factorial(self.N) // self.hook_product()


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
    if len(results) != shape.dim:
        raise VerificationFailed(f"{len(results)} tableaux of shape {shape.parts}, expected {shape.dim}")
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


@lru_cache(maxsize=None)
def norm0(t: RSYT) -> Fraction:
    """The invariant-form squared norm of the basis tableau (empty product = 1), computed once per tableau."""
    c = t.content
    out = Fraction(1)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            if c[i] <= c[j] - 2:
                out *= 1 - Fraction(1, (c[i] - c[j]) ** 2)
    if out <= 0:
        raise VerificationFailed(f"tableau norm {out} is not positive")
    return out


@lru_cache(maxsize=None)
def norm0_diag(shape: Partition) -> tuple[Fraction, ...]:
    return tuple(norm0(t) for t in enumerate_rsyt(shape))


@dataclass(frozen=True, eq=False)
class Scaled:
    """Exact rational array num / den: a read-only Python-int object array over one int den > 0."""

    num: np.ndarray
    den: int

    def __post_init__(self):
        self.num.flags.writeable = False

    @classmethod
    def of(cls, mat) -> "Scaled":
        """Carrier of an array of ints or rationals over the lcm of their denominators, hence reduced."""
        mat = np.asarray(mat, dtype=object)
        den = math.lcm(*(x.denominator for x in mat.flat))
        return cls(np.frompyfunc(lambda x: x.numerator * (den // x.denominator), 1, 1)(mat), den)

    @classmethod
    def stack(cls, mats) -> "Scaled":
        """The carriers over the lcm of their denominators, stacked along a new first axis."""
        den = math.lcm(*(m.den for m in mats))
        return cls(np.stack([m.num * (den // m.den) for m in mats]), den)

    def __matmul__(self, other: "Scaled") -> "Scaled":
        return Scaled(self.num @ other.num, self.den * other.den)

    def __mul__(self, q) -> "Scaled":
        """Times an int or rational q: its numerator scales the entries, its denominator scales den."""
        return Scaled(self.num * q.numerator, self.den * q.denominator)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scaled)
            and self.num.shape == other.num.shape
            and bool(np.all(self.num * other.den == other.num * self.den))
        )

    @property
    def T(self) -> "Scaled":
        return Scaled(self.num.T, self.den)

    def reduced(self) -> "Scaled":
        """Divided by the gcd of the entries and den: the one reduced carrier of its value."""
        g = math.gcd(self.den, *self.num.flat)
        return Scaled(self.num // g, self.den // g)

    def texts(self) -> list:
        """The entries as "p/q" strings in lowest terms ("p" when q = 1), nested like the array."""
        den = self.den

        def text(x):
            g = math.gcd(x, den)
            return str(x // g) if g == den else f"{x // g}/{den // g}"

        return np.frompyfunc(text, 1, 1)(self.num).tolist()

    @classmethod
    def from_texts(cls, texts) -> "Scaled":
        """Reduced carrier of nested "p" or "p/q" strings, the inverse of ``texts``.

        An entry is an optional sign and decimal digits, optionally followed
        by "/" and a positive integer; terms need not be lowest.  Raises
        ValueError for any other entry.
        """
        p, q = (np.asarray(a, dtype=object) for a in np.frompyfunc(_ratio, 1, 2)(np.array(texts, dtype=object)))
        den = math.lcm(*q.flat)
        return cls(np.asarray(p * (den // q), dtype=object), den)

    def floats(self) -> np.ndarray:
        """The entries as floats, each the correctly rounded quotient."""
        return (self.num / self.den).astype(float)


_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(text) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, of a store entry "p" or "p/q"."""
    match = _RATIO.fullmatch(text) if type(text) is str else None
    q = int(match[2] or 1) if match else 0
    if q == 0:
        raise ValueError(f"{text!r} is not an integer or a ratio p/q with q >= 1")
    p = int(match[1])
    g = math.gcd(p, q)
    return p // g, q // g


def failing_columns(lhs, rhs, n: int, rng) -> list[int]:
    """The columns j < n at which two linear maps on Python-int columns differ, lhs(e_j) != rhs(e_j), ascending.

    lhs and rhs take an (n, m) object matrix to an array whose last axis has m entries.  A set S
    of columns is certified by comparing lhs(r_S) with rhs(r_S) exactly (Freivalds), r_S being one
    vector r drawn from rng, entries uniform in [0, 2^64), on S and 0 off it: where the maps differ
    on S, a nonzero row of the difference vanishes at r_S with probability at most 2^-64.  All n
    columns are certified, then the halves of each failing set, a level at a time, down to single
    columns; a failing set always has a failing half, since the halves' values add up to its own.
    """
    r = [rng.getrandbits(64) for _ in range(n)]
    sets, bad = [(0, n)] if n else [], []
    while sets:
        x = np.zeros((n, len(sets)), dtype=object)
        for k, (a, b) in enumerate(sets):
            x[a:b, k] = r[a:b]
        fails = np.any((lhs(x) != rhs(x)).reshape(-1, len(sets)), axis=0)
        failing = [ab for ab, f in zip(sets, fails) if f]
        bad += [a for a, b in failing if b - a == 1]
        sets = [half for a, b in failing if b - a > 1 for half in ((a, (a + b) // 2), ((a + b) // 2, b))]
    return sorted(bad)


def total(terms: list[Scaled]) -> Scaled:
    """Sum of a non-empty list of carriers, over the lcm of their denominators."""
    den = math.lcm(*(t.den for t in terms))
    return Scaled(sum(t.num * (den // t.den) for t in terms), den)


@lru_cache(maxsize=None)
def norm_matrix(shape: Partition) -> Scaled:
    """D = diag of the tableau norms."""
    return Scaled.of(np.diag(np.array(norm0_diag(shape), dtype=object)))


@lru_cache(maxsize=None)
def simple_reflection(shape: Partition, i: int) -> Scaled:
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
    mat = np.full((dim, dim), Fraction(0), dtype=object)
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
    return Scaled.of(mat)


@lru_cache(maxsize=None)
def rep_matrix(shape: Partition, w: Perm) -> Scaled:
    """Representation matrix of w: sigma(w s_i) sigma(s_i) at the first descent i of w, reduced.

    w s_i swaps the one-line entries at positions i, i+1 and has one
    inversion fewer, so its matrix comes from this same table and each new
    matrix costs one product.
    """
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            shorter = rep_matrix(shape, perms.compose(w, perms.simple(len(w), i)))
            return (shorter @ simple_reflection(shape, i)).reduced()
    return Scaled(np.eye(shape.dim, dtype=object), 1)


def transposition_matrix(shape: Partition, i: int, j: int) -> Scaled:
    return rep_matrix(shape, perms.transposition(shape.N, i, j))


@lru_cache(maxsize=None)
def jucys_murphy(shape: Partition, i: int) -> Scaled:
    """Sum of (i,j) over j > i, reduced; diagonal with entries c(i, T) on the tableau basis."""
    if not 1 <= i <= shape.N:
        raise IndexError(f"omega_{i} out of range for N={shape.N}")
    zero = Scaled(np.zeros((shape.dim, shape.dim), dtype=object), 1)
    return total([zero] + [transposition_matrix(shape, i, j) for j in range(i + 1, shape.N + 1)]).reduced()

