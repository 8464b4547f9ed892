"""Construction of the vector-valued nonsymmetric Jack polynomials.

The degree-0 nodes (0, T) are the basis tensors x^0 (x) T, T.inv - T_0.inv
tableau steps from the root (0, T_0).  Every other node (alpha, T) is
reached from them by one rule, degree-raising jumps and
adjacent-transposition steps, and every constructed node is memoized.  A
node of degree d is one Python-int array ``num`` over one ``den``, reduced
once: row r is the coefficient of x^beta, beta = exponents(N, d)[r].  An
edge is one product of the rows with sigma(w)^T, w = s_i or w0^-1, moved to
the rows of w beta (plus e_N for a jump); a step s_i f - (kappa/gap) f adds
the scaled rows of f.  Read row by row, ``num`` is the node's column of the
integer matrix C_d that ``NsjpGraph.columns`` hands to ``check_eigen`` and
``torusform.gram``.  The divisions performed by exponent steps are guarded
at runtime: if two adjacent spectral entries collide the build aborts
rather than silently producing a wrong polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import compositions, perms, tableaux
from .compositions import Vec
from .errors import BadSupport, NegativeEntry, SpectralCollision, VerificationFailed
from .laurent import VVLaurent, cherednik_sum
from .perms import Perm
from .scalars import KappaParam
from .tableaux import RSYT, Scaled, failing_columns


@lru_cache(maxsize=None)
def exponents(n: int, d: int) -> tuple[Vec, ...]:
    """The compositions of d into n parts, lexicographically: the rows of every degree-d node."""
    return tuple(compositions.compositions_of(d, n))


@lru_cache(maxsize=None)
def _row_map(w: Perm, d: int, shift: Vec) -> np.ndarray:
    """For each row beta of exponents(N, d), the row of w.beta + shift in exponents(N, d + |shift|)."""
    n = len(w)
    index = {beta: r for r, beta in enumerate(exponents(n, d + sum(shift)))}
    return np.array([index[tuple(a + s for a, s in zip(perms.act(w, beta), shift))] for beta in exponents(n, d)])


def spectral_vector(alpha: Vec, t: RSYT, kappa: KappaParam) -> tuple[Fraction, ...]:
    """Eigenvalue list (alpha_i + 1 + kappa * c(r_alpha(i), T)), each entry one quotient of integers."""
    r = compositions.rank_perm(alpha)
    p, q = kappa.value.numerator, kappa.value.denominator
    return tuple(Fraction(q * (alpha[i] + 1) + p * t.content[r[i] - 1], q) for i in range(len(alpha)))


@dataclass(frozen=True, eq=False)
class GraphNode:
    """A Jack polynomial: num / den, one row of num per exponent of exponents(N, sum(alpha))."""

    alpha: Vec
    t_index: int
    tableau: RSYT
    spectral: tuple[Fraction, ...]
    num: np.ndarray
    den: int
    jumps: int
    steps: int


class NsjpGraph:
    """Memoized Yang-Baxter graph for one validated kappa and its shape.

    The degree-0 nodes x^0 (x) T are built at construction.  Every other
    node is built by ``node``: it walks back, one edge at a time, to the
    nearest node already built, then takes the edges forward: a jump where
    the last entry of the exponent is positive, otherwise a step at a
    descent, the first one.  Any other choice of descent must produce the
    same polynomials (path independence).
    """

    def __init__(self, kappa: KappaParam):
        shape = self.shape = kappa.shape
        self.kappa = kappa
        self.basis = tableaux.enumerate_rsyt(shape)
        self._nodes: dict[tuple[Vec, int], GraphNode] = {}
        # Degree 0 is the basis tensors.  Where c'(i) - c'(i+1) >= 2 the
        # seminormal column of s_i gives sigma(s_i) T' = b T' + T, T being T'
        # with i, i+1 swapped, so the tableau step s_i f - b f from x^0 (x) T'
        # is exactly x^0 (x) T; each such swap adds the pair (i, i+1) to inv.
        zero = (0,) * shape.N
        t0_inv = tableaux.t_zero(shape).inv
        for ti, t in enumerate(self.basis):
            num = np.zeros((1, shape.dim), dtype=object)
            num[0, ti] = 1
            self._make_node(zero, ti, Scaled(num, 1), 0, t.inv - t0_inv)

    def _make_node(self, alpha: Vec, t_index: int, poly: Scaled, jumps: int, steps: int) -> GraphNode:
        poly = poly.reduced()
        node = GraphNode(
            alpha=alpha,
            t_index=t_index,
            tableau=self.basis[t_index],
            spectral=spectral_vector(alpha, self.basis[t_index], self.kappa),
            num=poly.num,
            den=poly.den,
            jumps=jumps,
            steps=steps,
        )
        self._nodes[(alpha, t_index)] = node
        return node

    def _parent(self, alpha: Vec) -> tuple[Vec, int | None]:
        """The label one edge nearer the root, and the step's index i (None for a jump)."""
        if alpha[-1] >= 1:
            return compositions.phi_inverse(alpha), None
        i = next(i for i in range(1, len(alpha)) if alpha[i - 1] > alpha[i])
        delta = list(alpha)
        delta[i - 1], delta[i] = delta[i], delta[i - 1]
        return tuple(delta), i

    def node(self, alpha, t_index: int) -> GraphNode:
        alpha = tuple(alpha)
        hit = self._nodes.get((alpha, t_index))
        if hit is not None:
            return hit
        if len(alpha) != self.shape.N:
            raise BadSupport(f"label {alpha} needs {self.shape.N} entries")
        if min(alpha) < 0:
            raise NegativeEntry(f"label {alpha} has a negative entry")
        if not 0 <= t_index < len(self.basis):
            raise IndexError(f"tableau index {t_index} out of range for {len(self.basis)} tableaux")

        # every label of positive degree has a parent and degree 0 is built,
        # so the walk ends
        path = []
        while (alpha, t_index) not in self._nodes:
            beta, i = self._parent(alpha)
            path.append((alpha, i))
            alpha = beta
        prev = self._nodes[(alpha, t_index)]
        n = self.shape.N
        for alpha, i in reversed(path):
            if i is None:
                # degree-raising jump x_N sigma(w0^-1) f: row beta moves to w0^-1 beta + e_N
                w, shift, c = perms.inverse(perms.cycle(n)), (0,) * (n - 1) + (1,), Fraction(0)
            else:
                gap = prev.spectral[i - 1] - prev.spectral[i]
                if gap == 0:
                    raise SpectralCollision(
                        f"spectral entries {i}, {i + 1} coincide at {prev.alpha}, tableau {prev.tableau.rows}"
                    )
                # step s_i f + c f, c = -kappa/gap, over one denominator: row beta of s_i f moves to s_i beta
                w, shift, c = perms.simple(n, i), (0,) * n, -self.kappa.value / gap
            d, sigma = sum(prev.alpha), tableaux.rep_matrix(self.shape, w)
            num = np.zeros((len(exponents(n, d + sum(shift))), self.shape.dim), dtype=object)
            num[_row_map(w, d, shift)] = (prev.num @ sigma.num.T) * c.denominator
            if i is not None:
                num += prev.num * (c.numerator * sigma.den)
            poly = Scaled(num, prev.den * sigma.den * c.denominator)
            prev = self._make_node(alpha, t_index, poly, prev.jumps + (i is None), prev.steps + (i is not None))
        return prev

    def nsjp_laurent(self, alpha, t_index: int) -> VVLaurent:
        """Laurent extension: divide by the needed power of x_1 ... x_N."""
        m = max(0, -min(alpha))
        node = self.node(tuple(a + m for a in alpha), t_index)
        exps = [tuple(a - m for a in beta) for beta in exponents(self.shape.N, sum(node.alpha))]
        return VVLaurent.of_rows(self.kappa, exps, node.num, node.den)

    def build_degree(self, d: int) -> list[GraphNode]:
        """All nodes of degree exactly d, exponents visited triangular-ascending."""
        exps = sorted(
            compositions.compositions_of(d, self.shape.N),
            key=lambda a: (compositions.prefix_key(compositions.sort_desc(a)), compositions.prefix_key(a)),
        )
        out = []
        for alpha in exps:
            for ti in range(len(self.basis)):
                out.append(self.node(alpha, ti))
        return out

    def columns(self, d: int) -> tuple[list[GraphNode], np.ndarray, list[int]]:
        """The degree-d nodes in ``build_degree`` order, C_d and their denominators.

        Column k of the Python-int matrix C_d is node k's num read row by row:
        a block of dim rows per exponent of exponents(N, d).
        """
        nodes = self.build_degree(d)
        return nodes, np.stack([node.num.reshape(-1) for node in nodes], axis=1), [node.den for node in nodes]

    def check_eigen(self, max_degree: int, seed: int = 0) -> int:
        """The nodes of degree <= max_degree are eigenvectors of every U_i, eigenvalue xi_i; returns their number.

        Per degree d, ``_eigen_failure`` certifies U_i C = C diag(xi_i) for every i, C the ``columns`` of degree d (a
        scaled column is still an eigenvector), with ``laurent.cherednik_sum`` and random.Random(seed), and names the
        first failing node in ``build_degree`` order, with its smallest i.  Once every degree has passed, two nodes
        that share a spectral vector raise SpectralCollision, the first repeat named.
        """
        n, count, rng = self.shape.N, 0, random.Random(seed)
        seen, repeat = {}, None  # the first label of each spectral vector, the first repeat
        for d in range(max_degree + 1):
            nodes, cmat, _ = self.columns(d)
            xi = Scaled.of([[node.spectral[i] for node in nodes] for i in range(n)])
            fail = _eigen_failure(partial(cherednik_sum, self.kappa, exponents(n, d)), cmat, xi, rng)
            if fail:
                node = nodes[fail[0]]
                raise VerificationFailed(f"{node.alpha}, tableau {node.t_index} is not an eigenvector of xi_{fail[1]}")
            for node in nodes:
                first = seen.setdefault(node.spectral, (node.alpha, node.t_index))
                if repeat is None and first != (node.alpha, node.t_index):
                    repeat = f"nodes {first} and {(node.alpha, node.t_index)} share a spectral vector"
            count += len(nodes)
        if repeat:
            raise SpectralCollision(repeat)
        return count


def _eigen_failure(times, cmat: np.ndarray, xi: Scaled, rng) -> tuple[int, int] | None:
    """The first column k of C, and its smallest i, at which U_i C e_k != xi_i[k] C e_k; None when there is none.

    times(t, y) is sum_i t_i U_i y, a ``Scaled`` whose den depends on neither.  With weights t drawn once, N words
    uniform in [0, 2^64), ``failing_columns`` certifies times(t, C r) xi.den == C ((sum_i t_i xi_i) r) den: the
    difference is bilinear in (t, r), so a wrong column passes with probability at most 2 * 2^-64.  Unit weights
    then name the smallest failing i of the first failing column.
    """
    t = np.array([rng.getrandbits(64) for _ in xi.num], dtype=object)
    den, weights = times(t, cmat[:, :0]).den, t @ xi.num  # the operator's den, and sum_i t_i xi_i over xi.den
    lhs, rhs = (lambda x: times(t, cmat @ x).num * xi.den), (lambda x: cmat @ (weights[:, None] * x) * den)
    bad = failing_columns(lhs, rhs, cmat.shape[1], rng)
    if not bad:
        return None
    k, units = bad[0], np.eye(len(t), dtype=object)
    col = cmat[:, k : k + 1]
    fails = (np.any(times(u, col).num * xi.den != col * (xi.num[i, k] * den)) for i, u in enumerate(units))
    return k, next(i + 1 for i, fail in enumerate(fails) if fail)
