"""Construction of the vector-valued nonsymmetric Jack polynomials.

Nodes (alpha, T) are reached from the root (0, T_0) by degree-raising jumps
and adjacent-transposition steps; every constructed node is memoized.  The
divisions performed by exponent steps are guarded at runtime: if two
adjacent spectral entries collide the build aborts rather than silently
producing a wrong polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import compositions, perms, tableaux
from .compositions import Vec
from .errors import BadSupport, NegativeEntry, SpectralCollision, VerificationFailed
from .laurent import VVLaurent, group_action
from .perms import Perm
from .scalars import KappaParam
from .tableaux import RSYT, Partition


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
    """Memoized Yang-Baxter traversal for one (shape, kappa) session.

    descent_rule selects which descent resolves a non-jump exponent; "first"
    and "last" must produce identical polynomials (path independence), which
    the test suite exercises by sampling both.
    """

    def __init__(self, shape: Partition, kappa: KappaParam, descent_rule: str = "first"):
        if kappa.shape != shape.parts:
            raise ValueError("kappa was validated against a different shape")
        self.shape = shape
        self.kappa = kappa
        self.basis = tableaux.enumerate_rsyt(shape)
        self.t0_index = self.basis.index(tableaux.t_zero(shape))
        self.descent_rule = descent_rule
        self._nodes: dict[tuple[Vec, int], GraphNode] = {}
        self._build_degree0()

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

    def _build_degree0(self) -> None:
        """Populate the constant layer from the root via tableau steps.

        From T, an entry pair i, i+1 with c(i) - c(i+1) >= 2 yields the
        tableau with the two entries swapped; breadth-first search over
        these moves reaches every tableau.
        """
        zero = (0,) * self.shape.N
        root = VVLaurent.monomial(self.shape, self.kappa, zero, self.t0_index)
        self._make_node(zero, self.t0_index, root, 0, 0)
        frontier = [self.t0_index]
        while frontier:
            nxt = []
            for ti in frontier:
                t = self.basis[ti]
                node = self._nodes[(zero, ti)]
                for i in range(1, self.shape.N):
                    if t.content[i - 1] - t.content[i] < 2:
                        continue
                    t2 = t.swap_entries(i)
                    ti2 = self.basis.index(t2)
                    if (zero, ti2) in self._nodes:
                        continue
                    bp = Fraction(1, t.content[i - 1] - t.content[i])
                    si = perms.simple(self.shape.N, i)
                    poly = group_action(si, node.poly) - node.poly.scale(bp)
                    self._make_node(zero, ti2, poly, 0, node.steps + 1)
                    nxt.append(ti2)
            frontier = nxt
        missing = [t for k, t in enumerate(self.basis) if (zero, k) not in self._nodes]
        if missing:
            raise VerificationFailed(f"tableau steps failed to reach {missing}")

    def node(self, alpha, t_index: int) -> GraphNode:
        alpha = tuple(alpha)
        key = (alpha, t_index)
        hit = self._nodes.get(key)
        if hit is not None:
            return hit
        if len(alpha) != self.shape.N:
            raise BadSupport(f"label {alpha} needs {self.shape.N} entries")
        if min(alpha) < 0:
            raise NegativeEntry(f"label {alpha} has a negative entry")
        if not 0 <= t_index < len(self.basis):
            raise IndexError(f"tableau index {t_index} out of range for {len(self.basis)} tableaux")

        if alpha[-1] >= 1:
            # degree-raising jump from the rotated predecessor
            beta = compositions.phi_inverse(alpha)
            prev = self.node(beta, t_index)
            w0inv = perms.inverse(perms.cycle(self.shape.N))
            e_n = tuple(0 if k < self.shape.N - 1 else 1 for k in range(self.shape.N))
            poly = group_action(w0inv, prev.poly).monomial_mul(e_n)
            return self._make_node(alpha, t_index, poly, prev.jumps + 1, prev.steps)

        descents = [i for i in range(1, self.shape.N) if alpha[i - 1] > alpha[i]]
        if not descents:
            raise AssertionError(f"unreachable exponent {alpha}")
        i = descents[0] if self.descent_rule == "first" else descents[-1]
        delta = list(alpha)
        delta[i - 1], delta[i] = delta[i], delta[i - 1]
        prev = self.node(tuple(delta), t_index)
        gap = prev.spectral[i - 1] - prev.spectral[i]
        if gap == 0:
            raise SpectralCollision(
                f"spectral entries {i}, {i + 1} coincide at {prev.alpha}, tableau {prev.tableau.rows}"
            )
        si = perms.simple(self.shape.N, i)
        poly = group_action(si, prev.poly) - prev.poly.scale(self.kappa.value / gap)
        return self._make_node(alpha, t_index, poly, prev.jumps, prev.steps + 1)

    def build_nsjp(self, alpha, t: RSYT | int) -> GraphNode:
        t_index = t if isinstance(t, int) else self.basis.index(t)
        return self.node(alpha, t_index)

    def nsjp_laurent(self, alpha, t: RSYT | int) -> VVLaurent:
        """Laurent extension: divide by the needed power of x_1 ... x_N."""
        alpha = tuple(alpha)
        m = max(0, -min(alpha))
        shifted = tuple(a + m for a in alpha)
        poly = self.build_nsjp(shifted, t).poly
        if m == 0:
            return poly
        return poly.monomial_mul((-m,) * self.shape.N)

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

