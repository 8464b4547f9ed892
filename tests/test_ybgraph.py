import numpy as np
import pytest

from jacktorus import perms
from jacktorus.compositions import phi, rank_perm, steps_count, triangular_lt
from jacktorus.errors import BadSupport, NegativeEntry, SpectralCollision
from jacktorus.laurent import VVLaurent, cherednik, e_shift
from jacktorus.scalars import unchecked_kappa
from jacktorus.tableaux import Partition, Scaled, rep_matrix, t_zero
from jacktorus.ybgraph import NsjpGraph, spectral_vector


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


def test_degree_zero_is_pure_tensor(graph21, shape21, kappa21):
    for ti in range(2):
        node = graph21.node((0, 0, 0), ti)
        assert node.poly == VVLaurent.monomial(shape21, kappa21, (0, 0, 0), ti)
        assert node.jumps == 0


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
            assert cherednik(i, node.poly) == node.poly.scale(node.spectral[i - 1])


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
    first = NsjpGraph(shape21, kappa21, descent_rule="first")
    last = NsjpGraph(shape21, kappa21, descent_rule="last")
    for degree in range(4):
        for a, b in zip(first.build_degree(degree), last.build_degree(degree)):
            assert a.alpha == b.alpha and a.t_index == b.t_index
            assert a.poly == b.poly


def test_laurent_extension(graph21):
    for ti in range(2):
        direct = graph21.nsjp_laurent((1, 0, 2), ti)
        assert direct == graph21.node((1, 0, 2), ti).poly
        shifted = graph21.nsjp_laurent((0, -1, 1), ti)
        assert shifted == e_shift(-1, graph21.node((1, 0, 2), ti).poly)
        again = graph21.nsjp_laurent((-1, -2, 0), ti)
        assert e_shift(2, again) == graph21.node((1, 0, 2), ti).poly


def test_laurent_shift_consistency(graph21):
    base = graph21.nsjp_laurent((1, -1, 0), 0)
    up = graph21.nsjp_laurent((2, 0, 1), 0)
    assert up == e_shift(1, base)


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
                assert cherednik(i, node.poly) == node.poly.scale(node.spectral[i - 1])


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
