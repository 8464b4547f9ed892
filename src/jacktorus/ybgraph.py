"""Construction of the vector-valued nonsymmetric Jack polynomials.

The degree-0 nodes (0, T) are the basis tensors x^0 (x) T, T.inv - T_0.inv
tableau steps from the root (0, T_0).  Every other node (alpha, T) is
reached from them by one rule, degree-raising jumps and
adjacent-transposition steps, and every constructed node is memoized.  Each
edge is built in one pass: a step s_i f - (kappa/gap) f sums both
contributions to an exponent and reduces each coefficient once, and a jump
moves sigma(w0^-1) v to its shifted exponent, reduced once.  The reduced
integer carriers are what ``torusform.gram`` and ``check_eigen`` multiply
exactly (see ``laurent.columns``).  The divisions performed by exponent steps are
guarded at runtime: if two adjacent spectral entries collide the build
aborts rather than silently producing a wrong polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import compositions, perms, tableaux
from .compositions import Vec
from .errors import BadSupport, NegativeEntry, SpectralCollision, VerificationFailed
from .laurent import VVLaurent, cherednik_matrix, columns, e_shift, group_action
from .perms import Perm
from .scalars import KappaParam
from .tableaux import RSYT, Partition, Scaled, int_matmul, total


def spectral_vector(alpha: Vec, t: RSYT, kappa: KappaParam) -> tuple[Fraction, ...]:
    """Eigenvalue list (alpha_i + 1 + kappa * c(r_alpha(i), T))."""
    r = compositions.rank_perm(alpha)
    kap = kappa.value
    return tuple(alpha[i] + 1 + kap * t.content[r[i] - 1] for i in range(len(alpha)))


@dataclass(frozen=True)
class GraphNode:
    alpha: Vec
    t_index: int
    tableau: RSYT
    spectral: tuple[Fraction, ...]
    rank: Perm
    poly: VVLaurent
    jumps: int
    steps: int


class NsjpGraph:
    """Memoized Yang-Baxter graph for one (shape, kappa) session.

    The degree-0 nodes x^0 (x) T are built at construction.  Every other
    node is built by ``node``: it walks back, one edge at a time, to the
    nearest node already built, then takes the edges forward: a jump where
    the last entry of the exponent is positive, otherwise a step at a
    descent, the first one.  Any other choice of descent must produce the
    same polynomials (path independence).
    """

    def __init__(self, shape: Partition, kappa: KappaParam):
        if kappa.shape != shape.parts:
            raise ValueError("kappa was validated against a different shape")
        self.shape = shape
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
            self._make_node(zero, ti, VVLaurent.monomial(shape, kappa, zero, ti), 0, t.inv - t0_inv)

    def _make_node(self, alpha: Vec, t_index: int, poly: VVLaurent, jumps: int, steps: int) -> GraphNode:
        node = GraphNode(
            alpha=alpha,
            t_index=t_index,
            tableau=self.basis[t_index],
            spectral=spectral_vector(alpha, self.basis[t_index], self.kappa),
            rank=compositions.rank_perm(alpha),
            poly=poly,
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
        w0inv = perms.inverse(perms.cycle(n))
        e_n = (0,) * (n - 1) + (1,)
        for alpha, i in reversed(path):
            if i is None:
                # degree-raising jump from the rotated predecessor: group_action
                # reduces each carrier once, monomial_mul only moves them
                poly = group_action(w0inv, prev.poly).monomial_mul(e_n)
                prev = self._make_node(alpha, t_index, poly, prev.jumps + 1, prev.steps)
                continue
            gap = prev.spectral[i - 1] - prev.spectral[i]
            if gap == 0:
                raise SpectralCollision(
                    f"spectral entries {i}, {i + 1} coincide at {prev.alpha}, tableau {prev.tableau.rows}"
                )
            # s_i f - (kappa/gap) f in one pass: both contributions to an
            # exponent are summed, then reduced once by the constructor
            s_i = perms.simple(n, i)
            mat = tableaux.rep_matrix(self.shape, s_i)
            c = -self.kappa.value / gap
            parts: dict[Vec, list[Scaled]] = {}
            for beta, v in prev.poly.terms.items():
                parts.setdefault(perms.act(s_i, beta), []).append(mat @ v)
                parts.setdefault(beta, []).append(v * c)
            poly = VVLaurent(self.shape, self.kappa, {beta: total(vs) for beta, vs in parts.items()})
            prev = self._make_node(alpha, t_index, poly, prev.jumps, prev.steps + 1)
        return prev

    def nsjp_laurent(self, alpha, t_index: int) -> VVLaurent:
        """Laurent extension: divide by the needed power of x_1 ... x_N."""
        m = max(0, -min(alpha))
        return e_shift(-m, self.node(tuple(a + m for a in alpha), t_index).poly)

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

    def check_eigen(self, max_degree: int) -> int:
        """The nodes of degree <= max_degree are eigenvectors of every U_i, eigenvalue xi_i; returns their number.

        One exact integer identity per degree d and i: U_i C = C diag(xi_i), C
        the ``laurent.columns`` of the degree-d nodes over all compositions of
        d (a scaled column is still an eigenvector) and U_i their
        ``laurent.cherednik_matrix``.  The N matrices U_i are stacked over
        their common denominator D into one left operand, so each degree
        takes one ``int_matmul``, and the identity is checked as
        int_matmul(D U, C)_i L == C (D L xi_i), L the xi's common denominator.
        A failure names the first failing node in ``build_degree`` order,
        with its smallest i.
        """
        n, count = self.shape.N, 0
        for d in range(max_degree + 1):
            nodes = self.build_degree(d)
            exps, cmat, _ = columns([node.poly.terms for node in nodes], self.shape.dim)
            if exps != list(compositions.compositions_of(d, n)):
                raise VerificationFailed(f"the degree-{d} polynomials' exponents are not the compositions of {d}")
            us = [cherednik_matrix(self.shape, self.kappa, exps, i) for i in range(1, n + 1)]
            den = math.lcm(*(u.den for u in us))
            prod = int_matmul(np.vstack([u.num * (den // u.den) for u in us]), cmat).reshape(n, *cmat.shape)
            xi = Scaled.of([[node.spectral[i] for node in nodes] for i in range(n)])
            fails = np.any(prod * xi.den != cmat * (xi.num[:, None, :] * den), axis=1)  # by i - 1, then node
            bad = np.argwhere(fails.T)  # (node, i - 1) pairs, by node, then by i
            if len(bad):
                node, i = nodes[bad[0][0]], bad[0][1] + 1
                raise VerificationFailed(f"{node.alpha}, tableau {node.t_index} is not an eigenvector of xi_{i}")
            count += len(nodes)
        return count

    def check_genericity(self, max_degree: int) -> None:
        """Distinct spectral vectors across all built nodes of degree <= max_degree."""
        seen: dict[tuple, tuple] = {}
        for d in range(max_degree + 1):
            for node in self.build_degree(d):
                key = node.spectral
                if key in seen and seen[key] != (node.alpha, node.t_index):
                    raise SpectralCollision(
                        f"nodes {seen[key]} and {(node.alpha, node.t_index)} share a spectral vector"
                    )
                seen[key] = (node.alpha, node.t_index)

