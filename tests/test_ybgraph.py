import dataclasses
import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from jacktorus import perms, ybgraph
from jacktorus.compositions import rank_perm, steps_count
from jacktorus.errors import BadSupport, NegativeEntry, SpectralCollision, VerificationFailed
from jacktorus.laurent import VVLaurent, e_shift, group_action
from jacktorus.scalars import default_kappa, make_kappa
from jacktorus.tableaux import Partition, Scaled, rep_matrix, t_zero
from jacktorus.ybgraph import NsjpGraph, spectral_vector
from support import cherednik, phi, poly_eq, poly_scale, poly_sub, triangular_lt, unchecked_kappa, valid_shapes

SHAPES_TO_6 = [shape for n in range(3, 7) for shape in valid_shapes(n)]


class LastDescentGraph(NsjpGraph):
    """Takes each step at the last descent rather than the first; path independence says nothing changes."""

    def _parent(self, alpha):
        if alpha[-1] >= 1:
            return super()._parent(alpha)
        i = max(i for i in range(1, len(alpha)) if alpha[i - 1] > alpha[i])
        delta = list(alpha)
        delta[i - 1], delta[i] = delta[i], delta[i - 1]
        return tuple(delta), i


DESCENT_RULES = {"first": NsjpGraph, "last": LastDescentGraph}


def path_length(alpha, t, shape) -> tuple[int, int]:
    """Predicted (jumps, steps) from the root to the node (alpha, T)."""
    t0 = t_zero(shape)
    return sum(alpha), steps_count(alpha) + t.inv - t0.inv


def leading_exponents(f: VVLaurent) -> list[tuple[int, ...]]:
    """Exponents not triangular-below any other exponent of the same degree."""
    exps = list(f.terms)
    return [a for a in exps if not any(triangular_lt(a, b) for b in exps if b != a)]


def test_spectral_at_origin(shape21, kappa21):
    t0 = t_zero(shape21)
    k = kappa21.value
    assert spectral_vector((0, 0, 0), t0, kappa21) == (1 + k, 1 - k, 1)


def test_spectral_shifts_under_phi(shape21, kappa21):
    t = t_zero(shape21)
    for alpha in [(0, 0, 0), (2, 0, 1), (1, 3, 0)]:
        xi = spectral_vector(alpha, t, kappa21)
        expect = xi[1:] + (xi[0] + 1,)
        assert spectral_vector(phi(alpha), t, kappa21) == expect


def test_spectral_uses_rank(kappa31, shape31):
    alpha = (0, 3, 5, 0)
    assert rank_perm(alpha) == (3, 2, 1, 4)
    t = t_zero(shape31)
    xi = spectral_vector(alpha, t, kappa31)
    k = kappa31.value
    expect = tuple(
        alpha[i] + 1 + k * t.content[rank_perm(alpha)[i] - 1] for i in range(4)
    )
    assert xi == expect


@pytest.fixture(params=[(shape, sign) for shape in SHAPES_TO_6 for sign in (1, -1)],
                ids=lambda p: f"{p[0].parts}-{'default' if p[1] > 0 else 'negative'}")
def degree0(request):
    """The graph of every valid shape with N <= 6, at the default kappa and at -1/(h+2)."""
    shape, sign = request.param
    kap = default_kappa(shape.parts) if sign > 0 else make_kappa(-1, shape.max_hook + 2, shape.parts)
    return NsjpGraph(shape, kap)


def test_degree_zero_is_one_seminormal_step_from_its_neighbours(degree0):
    # s_i f' - b f' at x^0 (x) T' is x^0 (x) T, T' with i, i+1 swapped, when c'(i) - c'(i+1) >= 2
    zero = (0,) * degree0.shape.N
    seen = set()
    for k, t in enumerate(degree0.basis):
        src = degree0.node(zero, k)
        for i in range(1, degree0.shape.N):
            diff = t.content[i - 1] - t.content[i]
            if diff < 2:
                continue
            dst = degree0.node(zero, degree0.basis.index(t.swap_entries(i)))
            step = poly_sub(group_action(perms.simple(degree0.shape.N, i), src.poly), poly_scale(src.poly, Fraction(1, diff)))
            assert poly_eq(step, dst.poly)
            assert dst.tableau.inv == t.inv + 1 and dst.steps == src.steps + 1
            seen.add(dst.t_index)
    # every tableau but the root is one such step from another
    assert len(seen) == len(degree0.basis) - 1


def test_degree_zero_is_pure_tensor(degree0):
    zero = (0,) * degree0.shape.N
    t0 = t_zero(degree0.shape)
    for k, t in enumerate(degree0.basis):
        node = degree0.node(zero, k)
        assert poly_eq(node.poly, VVLaurent.monomial(degree0.shape, degree0.kappa, zero, k))
        assert node.jumps == 0 and node.steps == t.inv - t0.inv
        for i in range(1, degree0.shape.N + 1):
            assert poly_eq(cherednik(i, node.poly), poly_scale(node.poly, node.spectral[i - 1]))


def test_degree_zero_is_built_without_the_group_action(monkeypatch):
    def refuse(w, f):
        raise AssertionError("the degree-0 layer needs no group action")

    monkeypatch.setattr(ybgraph, "group_action", refuse)
    shape = Partition((3, 2, 1))
    kap = default_kappa(shape.parts)
    graph = NsjpGraph(shape, kap)
    zero = (0,) * 6
    nodes = [graph.node(zero, k) for k in range(16)]
    assert shape.dim == 16
    assert len(nodes) == 16
    assert all(poly_eq(node.poly, VVLaurent.monomial(shape, kap, zero, k)) for k, node in enumerate(nodes))


def test_node_builds_a_long_path_without_recursion(shape21, kappa21):
    graph = NsjpGraph(shape21, kappa21)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        node = graph.node((0, 0, 20), 0)
    finally:
        sys.setrecursionlimit(limit)
    assert (node.jumps, node.steps) == path_length((0, 0, 20), node.tableau, shape21)


@pytest.mark.parametrize("rule", ["first", "last"])
@pytest.mark.parametrize("shape", [s for n in (3, 4) for s in valid_shapes(n)], ids=lambda s: str(s.parts))
def test_each_edge_is_the_operator_formula_on_its_parent(shape, rule):
    """Steps are s_i f - (kappa/gap) f and jumps sigma(w0^-1) f times x_N, with every carrier reduced."""
    kap = default_kappa(shape.parts)
    graph = DESCENT_RULES[rule](shape, kap)
    n = shape.N
    w0inv = perms.inverse(perms.cycle(n))
    e_n = (0,) * (n - 1) + (1,)
    for degree in range(1, 4):
        for node in graph.build_degree(degree):
            beta, i = graph._parent(node.alpha)
            parent = graph.node(beta, node.t_index)
            if i is None:
                expect = group_action(w0inv, parent.poly).monomial_mul(e_n)
            else:
                gap = parent.spectral[i - 1] - parent.spectral[i]
                expect = poly_sub(group_action(perms.simple(n, i), parent.poly), poly_scale(parent.poly, kap.value / gap))
            assert poly_eq(node.poly, expect)
            for v in node.poly.terms.values():
                assert v.num.any() and math.gcd(v.den, *v.num.flat) == 1


def test_lowest_degree_one_is_pure_monomial(graph21, shape21, kappa21):
    # (0,0,1) is minimal in its degree: no lower-order terms at all
    for ti in range(2):
        node = graph21.node((0, 0, 1), ti)
        assert set(node.poly.terms) == {(0, 0, 1)}
        w0inv = perms.inverse(perms.cycle(3))
        mat = rep_matrix(shape21, w0inv)
        assert node.poly.terms[(0, 0, 1)] == Scaled(mat.num[:, ti], mat.den)


@pytest.mark.parametrize("degree", range(4))
def test_eigen_property_exact(graph21, degree):
    for node in graph21.build_degree(degree):
        for i in (1, 2, 3):
            assert poly_eq(cherednik(i, node.poly), poly_scale(node.poly, node.spectral[i - 1]))


def test_leading_term(graph21, shape21):
    for degree in range(4):
        for node in graph21.build_degree(degree):
            assert leading_exponents(node.poly) == [node.alpha]
            mat = rep_matrix(shape21, perms.inverse(node.rank))
            assert node.poly.terms[node.alpha] == Scaled(mat.num[:, node.t_index], mat.den)


def test_path_lengths_match_traversal(graph21, shape21):
    for degree in range(5):
        for node in graph21.build_degree(degree):
            jumps, steps = path_length(node.alpha, node.tableau, shape21)
            assert jumps == sum(node.alpha) == node.jumps
            assert steps == node.steps


def test_path_length_example(shape21):
    t0 = t_zero(shape21)
    assert path_length((0, 0, 0), t0, shape21) == (0, 0)
    assert path_length((1, 0, 0), t0, shape21) == (1, 2)
    assert steps_count((1, 0, 0)) == 2


def test_path_independence(shape21, kappa21):
    first = NsjpGraph(shape21, kappa21)
    last = LastDescentGraph(shape21, kappa21)
    for degree in range(4):
        for a, b in zip(first.build_degree(degree), last.build_degree(degree)):
            assert a.alpha == b.alpha and a.t_index == b.t_index
            assert poly_eq(a.poly, b.poly)


def test_laurent_extension(graph21):
    for ti in range(2):
        direct = graph21.nsjp_laurent((1, 0, 2), ti)
        assert poly_eq(direct, graph21.node((1, 0, 2), ti).poly)
        shifted = graph21.nsjp_laurent((0, -1, 1), ti)
        assert poly_eq(shifted, e_shift(-1, graph21.node((1, 0, 2), ti).poly))
        again = graph21.nsjp_laurent((-1, -2, 0), ti)
        assert poly_eq(e_shift(2, again), graph21.node((1, 0, 2), ti).poly)


def test_laurent_shift_consistency(graph21):
    base = graph21.nsjp_laurent((1, -1, 0), 0)
    up = graph21.nsjp_laurent((2, 0, 1), 0)
    assert poly_eq(up, e_shift(1, base))


def test_genericity_guard_passes_for_admissible(graph21):
    graph21.check_genericity(3)


def test_spectral_collision_detected():
    # kappa = 1 makes adjacent spectral entries collide during a step
    shape = Partition((2, 1))
    bad = unchecked_kappa(1, 1, (2, 1))
    graph = NsjpGraph(shape, bad)
    with pytest.raises(SpectralCollision):
        for d in range(3):
            graph.build_degree(d)
        graph.check_genericity(2)


def test_eigen_properties_31(graph31):
    for degree in range(3):
        for node in graph31.build_degree(degree):
            for i in (1, 2, 3, 4):
                assert poly_eq(cherednik(i, node.poly), poly_scale(node.poly, node.spectral[i - 1]))


def test_check_eigen_counts_every_node_to_the_degree(graph21, graph31):
    assert graph21.check_eigen(4) == sum(len(graph21.build_degree(d)) for d in range(5)) == 70
    assert graph31.check_eigen(2) == 3 * (1 + 4 + 10)


def test_check_eigen_puts_the_operators_over_one_denominator():
    # on (3,2) the U_i do not share a denominator: 360 for i = 1, 4, 5 and 180 for i = 2, 3
    graph = NsjpGraph(Partition((3, 2)), default_kappa((3, 2)))
    assert graph.check_eigen(2) == 5 * (1 + 5 + 15)


@pytest.mark.parametrize("parts, degree, k, row", [((2, 1), 1, 2, 0), ((2, 1), 2, 5, 7), ((3, 1), 2, 20, 11), ((2, 1), 3, 0, 3)])
def test_check_eigen_fails_on_one_perturbed_entry_of_the_columns(monkeypatch, parts, degree, k, row):
    shape = Partition(parts)
    graph = NsjpGraph(shape, default_kappa(parts))
    real = ybgraph.columns

    def perturbed(maps, dim):
        exps, cmat, scales = real(maps, dim)
        if sum(exps[0]) == degree:
            cmat[row, k] += 1
        return exps, cmat, scales

    monkeypatch.setattr(ybgraph, "columns", perturbed)
    node = graph.build_degree(degree)[k]
    with pytest.raises(VerificationFailed) as info:
        graph.check_eigen(3)
    assert str(info.value) == f"{node.alpha}, tableau {node.t_index} is not an eigenvector of xi_1"


@pytest.mark.parametrize(
    "parts, degree, k, i", [((2, 1), 0, 1, 3), ((2, 1), 2, 4, 2), ((2, 1), 3, 19, 1), ((3, 1), 2, 7, 4), ((3, 2), 1, 3, 3)]
)
def test_check_eigen_fails_on_one_eigenvalue_moved_by_a_seventh(monkeypatch, parts, degree, k, i):
    shape = Partition(parts)
    graph = NsjpGraph(shape, default_kappa(parts))
    real = NsjpGraph.build_degree

    def moved(self, d):
        nodes = real(self, d)
        if d == degree:
            xi = list(nodes[k].spectral)
            xi[i - 1] += Fraction(1, 7)
            nodes[k] = dataclasses.replace(nodes[k], spectral=tuple(xi))
        return nodes

    monkeypatch.setattr(NsjpGraph, "build_degree", moved)
    node = graph.build_degree(degree)[k]
    with pytest.raises(VerificationFailed) as info:
        graph.check_eigen(3)
    assert str(info.value) == f"{node.alpha}, tableau {node.t_index} is not an eigenvector of xi_{i}"


def test_check_eigen_fails_when_the_exponents_miss_a_composition(monkeypatch, shape21, kappa21):
    # a zero polynomial is an eigenvector of everything; a degree-0 layer of zeros has no rows at all
    graph = NsjpGraph(shape21, kappa21)
    real = NsjpGraph.build_degree

    def zeroed(self, d):
        nodes = real(self, d)
        return [dataclasses.replace(n, poly=VVLaurent(shape21, kappa21)) for n in nodes] if d == 0 else nodes

    monkeypatch.setattr(NsjpGraph, "build_degree", zeroed)
    with pytest.raises(VerificationFailed, match="degree-0 polynomials' exponents are not the compositions of 0"):
        graph.check_eigen(1)


def test_node_rejects_a_negative_entry(shape21, kappa21):
    with pytest.raises(NegativeEntry):
        NsjpGraph(shape21, kappa21).node((-1, 0, 1), 0)


@pytest.mark.parametrize("alpha", [(0, 0, 0, 0), (1, 0), ()], ids=str)
def test_node_rejects_a_wrong_length(shape21, kappa21, alpha):
    with pytest.raises(BadSupport):
        NsjpGraph(shape21, kappa21).node(alpha, 0)


@pytest.mark.parametrize("alpha, t_index", [((0, 0, 0), 7), ((1, 0, 2), 2), ((0, 0, 0), -1)], ids=str)
def test_node_rejects_an_out_of_range_tableau(shape21, kappa21, alpha, t_index):
    with pytest.raises(IndexError):
        NsjpGraph(shape21, kappa21).node(alpha, t_index)
