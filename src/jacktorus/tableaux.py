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


def norm0(t: RSYT) -> Fraction:
    """The invariant-form squared norm of the basis tableau (empty product = 1)."""
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


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product a @ b of two Python-int object matrices, taken from one float64 limb product.

    Each entry x is split into signed limbs of s = (53 - K.bit_length()) // 2
    bits, K the inner dimension: x = sum_k sign(x) d_k 2^(s k) with
    0 <= d_k < 2^s.  The limbs of a are stacked by rows and those of b by
    columns, so one float64 matmul takes every limb pair at once.  Each
    partial sum of a limb pair's product is an integer of magnitude at most
    K (2^s - 1)^2 < 2^53, which float64 holds exactly, so every sum is exact
    in any summation order, with or without FMA, at any BLAS thread count.
    The blocks are cast to int64 and shift-added back as Python ints.  A
    factor whose entries all fit in int64 is cut into limbs by int64 shifts,
    any other by Python-int shifts; the limbs are the same.
    """
    (m, k), n = a.shape, b.shape[1]
    s = _limb_bits(k)
    la, lb = _limbs(a, s), _limbs(b, s)
    prod = (la.reshape(-1, k) @ lb.transpose(1, 0, 2).reshape(k, -1)).astype(np.int64)
    prod = prod.reshape(len(la), m, len(lb), n)  # prod[i, :, j] = limb i of a @ limb j of b
    out = np.zeros((m, n), dtype=object)
    for i, j in np.ndindex(len(la), len(lb)):
        out += prod[i, :, j].astype(object) << (s * (i + j))
    return out


def _limb_bits(k: int) -> int:
    """Limb width for inner dimension k: 2s <= 53 - k.bit_length(), so k (2^s - 1)^2 < 2^53."""
    return (53 - k.bit_length()) // 2


def _limbs(m: np.ndarray, s: int) -> np.ndarray:
    """Signed s-bit float64 limbs of an int object matrix, lowest first, stacked; none for a zero matrix."""
    mag, neg, mask = np.abs(m), m < 0, (1 << s) - 1
    try:
        mag = mag.astype(np.int64)  # when every entry fits, the limbs are cut by int64 shifts
    except OverflowError:
        pass
    out = []
    while mag.any():
        limb = (mag & mask).astype(np.float64)
        out.append(np.where(neg, -limb, limb))
        mag = mag >> s
    return np.array(out, dtype=np.float64).reshape(len(out), *m.shape)


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

