import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus.compositions import compositions_of, sort_desc
from jacktorus.errors import SpectralCollision
from jacktorus.laurent import VVLaurent, cherednik_matrix, group_action
from jacktorus.scalars import default_kappa, make_kappa
from jacktorus.tableaux import RSYT, Scaled, enumerate_rsyt, int_matmul, norm0, t_zero
from jacktorus.torusform import (
    FormContext,
    _pairing_block,
    gram,
    gram_rows,
    norm_partition,
    nsjp_norm,
    pair,
)
from jacktorus.ybgraph import exponents
from support import dense_gram, dunkl, e_factor, monomial, monomial_mul, phi, poly_add, valid_shapes


def test_norm_partition_trivial(shape21, kappa21):
    for t in enumerate_rsyt(shape21):
        assert norm_partition((0, 0, 0), t, kappa21) == norm0(t)


def test_norm_partition_shift_invariance(shape21, kappa21):
    t = t_zero(shape21)
    for lam in [(2, 1, 0), (3, 0, 0), (2, 2, 1)]:
        base = norm_partition(lam, t, kappa21)
        shifted = tuple(v + 2 for v in lam)
        assert norm_partition(shifted, t, kappa21) == base


def test_norm_partition_explicit(shape21, kappa21):
    # lambda = (1,0,0), contents (1,-1,0): pairs (1,2) gap 2 and (1,3) gap 1
    t = t_zero(shape21)
    k = kappa21.value
    expect = norm0(t)
    expect *= 1 - (k / (1 + 2 * k)) ** 2
    expect *= 1 - (k / (1 + k)) ** 2
    assert norm_partition((1, 0, 0), t, kappa21) == expect


def test_norm_partition_rejects_non_partition(shape21, kappa21):
    with pytest.raises(ValueError):
        norm_partition((0, 1, 0), t_zero(shape21), kappa21)


def test_e_factor_partition_is_one(shape21, kappa21):
    t = t_zero(shape21)
    for eps in (1, -1):
        assert e_factor((3, 1, 0), t, eps, kappa21) == 1


def test_e_factor_single_inversion(shape21, kappa21):
    # alpha = (0,1,0): one inverted pair (1,2); r = (2,1,3)
    t = t_zero(shape21)
    k = kappa21.value
    dc = t.content[0] - t.content[1]  # c(r(2)) - c(r(1)) with r = (2,1,3)
    for eps in (1, -1):
        assert e_factor((0, 1, 0), t, eps, kappa21) == 1 + eps * k / (1 + k * dc)


def test_e_factor_reconstructs_norm(graph21, kappa21, ctx21):
    # <z_a, z_a> = (E_1 E_-1)^(-1) <z_{a+}, z_{a+}>
    from jacktorus.compositions import sort_desc

    for alpha in [(0, 1, 0), (1, 0, 2), (0, 2, 1), (1, 1, 2)]:
        for ti in range(2):
            t = graph21.basis[ti]
            f = graph21.nsjp_laurent(alpha, ti)
            got = pair(f, f, ctx21)
            assert got == nsjp_norm(alpha, t, kappa21)
            ee = e_factor(alpha, t, 1, kappa21) * e_factor(alpha, t, -1, kappa21)
            assert got == norm_partition(sort_desc(alpha), t, kappa21) / ee


def test_nsjp_norm_finite_on_positivity_boundary():
    """kappa = 1/4 is the closed boundary 1/h for shape (3,1): the quotient form
    is 0/0 for some labels but the cancelled product stays finite and matches
    the actual pairing."""
    from jacktorus.coeffs import CoeffStore
    from jacktorus.scalars import make_kappa
    from jacktorus.tableaux import Partition
    from jacktorus.ybgraph import NsjpGraph

    shape = Partition((3, 1))
    kap = make_kappa(1, 4, (3, 1))
    graph = NsjpGraph(shape, kap)
    ctx = FormContext(CoeffStore(shape, kap))
    t3 = graph.basis[2]
    assert t3.content == (-1, 2, 1, 0)
    alpha = (0, 1, 0, 0)
    assert e_factor(alpha, t3, -1, kap) == 0
    assert norm_partition((1, 0, 0, 0), t3, kap) == 0  # the sorted label is null
    val = nsjp_norm(alpha, t3, kap)
    assert val > 0
    f = graph.nsjp_laurent(alpha, 2)
    assert pair(f, f, ctx) == val


def pochhammer(t: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= t + i
    return out


def covariant_norm(lam, t: RSYT, kappa) -> Fraction:
    """Norm for the companion form in which x_i is adjoint to the Dunkl operator."""
    lam = tuple(lam)
    out = norm_partition(lam, t, kappa)
    for i in range(len(lam)):
        out *= pochhammer(1 + kappa.value * t.content[i], lam[i])
    return out


def test_covariant_ratio(shape21, kappa21):
    t = t_zero(shape21)
    for lam in [(0, 0, 0), (1, 0, 0), (2, 1, 0)]:
        ratio = covariant_norm(lam, t, kappa21) / norm_partition(lam, t, kappa21)
        expect = Fraction(1)
        for i in range(3):
            expect *= pochhammer(1 + kappa21.value * t.content[i], lam[i])
        assert ratio == expect
    assert covariant_norm((1, 0, 0), t, kappa21) == norm_partition((1, 0, 0), t, kappa21) * (
        1 + kappa21.value * t.content[0]
    )


def test_pairing_of_constants(shape21, kappa21, ctx21):
    for ti in range(2):
        for tj in range(2):
            f = monomial(shape21, kappa21, (0, 0, 0), ti)
            g = monomial(shape21, kappa21, (0, 0, 0), tj)
            expect = norm0(enumerate_rsyt(shape21)[ti]) if ti == tj else 0
            assert pair(f, g, ctx21) == expect


def test_coordinate_multiplication_isometry(shape21, kappa21, ctx21):
    rng = random.Random(3)
    for _ in range(6):
        f = _random_poly(shape21, kappa21, rng)
        g = _random_poly(shape21, kappa21, rng)
        base = pair(f, g, ctx21)
        for i in range(3):
            e = tuple(1 if k == i else 0 for k in range(3))
            assert pair(monomial_mul(f, e), monomial_mul(g, e), ctx21) == base


def test_symmetric_group_invariance(shape21, kappa21, ctx21):
    rng = random.Random(4)
    for _ in range(6):
        f = _random_poly(shape21, kappa21, rng)
        g = _random_poly(shape21, kappa21, rng)
        w = tuple(rng.sample([1, 2, 3], 3))
        assert pair(group_action(w, f), group_action(w, g), ctx21) == pair(f, g, ctx21)


def test_euler_dunkl_selfadjoint(shape21, kappa21, ctx21):
    # <x_i D_i f, g> = <f, x_i D_i g>
    rng = random.Random(6)
    for _ in range(4):
        f = _random_poly(shape21, kappa21, rng, max_exp=2)
        g = _random_poly(shape21, kappa21, rng, max_exp=2)
        for i in (1, 2, 3):
            e = tuple(1 if k == i - 1 else 0 for k in range(3))
            lhs = pair(monomial_mul(dunkl(i, f), e), g, ctx21)
            rhs = pair(f, monomial_mul(dunkl(i, g), e), ctx21)
            assert lhs == rhs


def test_homogeneous_orthogonality(shape21, kappa21, ctx21):
    f = monomial(shape21, kappa21, (1, 0, 0), 0)
    g = monomial(shape21, kappa21, (1, 1, 0), 0)
    assert pair(f, g, ctx21) == 0


def test_laurent_pairs_through_common_shift(graph21, kappa21, ctx21):
    f = graph21.nsjp_laurent((0, -1, 1), 0)
    g = graph21.nsjp_laurent((0, -1, 1), 0)
    assert pair(f, g, ctx21) == nsjp_norm((1, 0, 2), graph21.basis[0], kappa21)


def _nodes_to_degree(graph, degree):
    return [(node.alpha, node.t_index) for d in range(degree + 1) for node in graph.build_degree(d)]


def _assert_matches_pairwise(graph, degree, ctx):
    """gram's blocks are the all-pairs oracle on the graph's columns entry for entry, and gram_rows holds
    exactly their nonzero entries; returns the dense matrix."""
    blocks = gram(graph, degree, ctx)
    mat = dense_gram(blocks)
    polys = []
    for d in range(degree + 1):
        nodes, cmat, dens = graph.columns(d)
        rows = cmat.reshape(-1, graph.shape.dim, len(nodes))
        polys += [VVLaurent.of_rows(graph.shape, graph.kappa, exponents(graph.shape.N, d), rows[:, :, k], dens[k]) for k in range(len(nodes))]
    n = len(polys)
    assert [len(blk.dens) for blk in blocks] == [len(graph.build_degree(d)) for d in range(degree + 1)]
    assert gram_rows(blocks) == [{j: mat[i, j] for j in range(n) if mat[i, j]} for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = pair(polys[i], polys[j], ctx)
            assert mat[i, j] == val and mat[j, i] == val, (i, j)
    return mat


def test_gram_degree_zero(graph21, ctx21, shape21):
    mat = dense_gram(gram(graph21, 0, ctx21))
    basis = enumerate_rsyt(shape21)
    assert mat[0, 1] == 0 and mat[1, 0] == 0
    assert [mat[k, k] for k in range(2)] == [norm0(t) for t in basis]


def test_gram_full_orthogonality_small(graph21, ctx21, kappa21):
    nodes = _nodes_to_degree(graph21, 3)
    mat = _assert_matches_pairwise(graph21, 3, ctx21)
    # one block per degree, over the nodes of that degree only
    blocks = gram(graph21, 3, ctx21)
    assert [blk.prod.shape for blk in blocks] == [(2, 2), (6, 6), (12, 12), (20, 20)]
    for i, (alpha, ti) in enumerate(nodes):
        assert mat[i, i] == nsjp_norm(alpha, graph21.basis[ti], kappa21)
        assert all(mat[i, j] == 0 for j in range(len(nodes)) if j != i)


def test_jump_isometry(graph21, ctx21, kappa21):
    for lam in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 0)]:
        for ti in range(2):
            f = graph21.nsjp_laurent(lam, ti)
            g = graph21.nsjp_laurent(phi(lam), ti)
            assert pair(f, f, ctx21) == pair(g, g, ctx21)


@pytest.mark.parametrize("parts", [(2, 2), (2, 1, 1)])
def test_gram_orthogonality_other_shapes(parts):
    from jacktorus.coeffs import CoeffStore
    from jacktorus.scalars import default_kappa
    from jacktorus.tableaux import Partition
    from jacktorus.ybgraph import NsjpGraph

    shape = Partition(parts)
    kap = default_kappa(parts)
    graph = NsjpGraph(shape, kap)
    ctx = FormContext(CoeffStore(shape, kap))
    nodes = _nodes_to_degree(graph, 2)
    mat = _assert_matches_pairwise(graph, 2, ctx)
    for i, (alpha, ti) in enumerate(nodes):
        assert mat[i, i] == nsjp_norm(alpha, graph.basis[ti], kap)
        assert all(mat[i, j] == 0 for j in range(len(nodes)) if j != i)


def test_laurent_labels_are_pairwise_orthogonal(graph21, ctx21):
    nodes = [
        ((0, -1, 1), 0),
        ((-1, 0, 1), 1),
        ((-1, -1, 0), 0),
        ((1, -1, 0), 1),
        ((0, 0, 0), 1),
        ((-2, 1, 1), 0),
        ((0, -1, 1), 1),
    ]
    assert any(min(a) < 0 for a, _ in nodes)
    polys = [graph21.nsjp_laurent(*key) for key in nodes]
    for i, (alpha, ti) in enumerate(nodes):
        norm = nsjp_norm(tuple(a - min(alpha) for a in alpha), graph21.basis[ti], graph21.kappa)
        for j in range(len(nodes)):
            assert pair(polys[i], polys[j], ctx21) == (norm if i == j else 0), (nodes[i], nodes[j])


class _RandomColumns:
    """Stands in for the graph: its columns are random integer columns over the compositions, the same on every call."""

    def __init__(self, graph, seed):
        self.shape, self.kappa, self.graph, self.seed = graph.shape, graph.kappa, graph, seed

    def build_degree(self, d):
        return self.graph.build_degree(d)

    def columns(self, d):
        rng = random.Random(self.seed + d)
        nodes = self.graph.build_degree(d)
        size = len(exponents(self.shape.N, d)) * self.shape.dim
        cmat = np.array([[rng.randrange(-3, 4) for _ in nodes] for _ in range(size)], dtype=object)
        return nodes, cmat, [rng.randrange(1, 9) for _ in nodes]


def test_gram_matches_pairwise_on_non_orthogonal_inputs(graph21, ctx21):
    """Random columns, whose Gram matrix has nonzero off-diagonal entries, which the orthogonal Jack basis never has."""
    mat = _assert_matches_pairwise(_RandomColumns(graph21, 11), 2, ctx21)
    off = [mat[i, j] for i in range(len(mat)) for j in range(len(mat)) if i != j and mat[i, j]]
    assert len(off) > len(mat)


def test_gram_raises_when_the_pairwise_oracle_disagrees(graph21, ctx21, monkeypatch):
    from jacktorus import torusform
    from jacktorus.errors import VerificationFailed

    real = torusform.pair
    monkeypatch.setattr(torusform, "pair", lambda f, g, ctx: real(f, g, ctx) + 1)
    with pytest.raises(VerificationFailed):
        gram(graph21, 1, ctx21)


def test_gram_raises_when_a_block_product_is_wrong_on_the_diagonal(graph21, ctx21, perturb_gram_product):
    from jacktorus.errors import VerificationFailed

    def bump_diagonal(out):
        out[np.diag_indices_from(out)] += 1

    perturb_gram_product(bump_diagonal)
    with pytest.raises(VerificationFailed):
        gram(graph21, 2, ctx21)


def test_pair_takes_no_limb_products(graph21, ctx21, monkeypatch):
    # the oracle stays on object products, independent of the products it checks
    from jacktorus import tableaux, torusform

    def refuse(a, b):
        raise AssertionError("pair must not use int_matmul")

    monkeypatch.setattr(torusform, "int_matmul", refuse)
    monkeypatch.setattr(tableaux, "int_matmul", refuse)
    f = graph21.nsjp_laurent((1, 0, 1), 1)
    assert pair(f, f, ctx21) == nsjp_norm((1, 0, 1), graph21.basis[1], graph21.kappa)


SHAPES_TO_6 = [s.parts for n in range(3, 7) for s in valid_shapes(n)]


@lru_cache(maxsize=None)
def _setup(parts):
    from jacktorus.coeffs import CoeffStore
    from jacktorus.scalars import default_kappa
    from jacktorus.tableaux import Partition
    from jacktorus.ybgraph import NsjpGraph

    shape = Partition(parts)
    kap = default_kappa(parts)
    graph = NsjpGraph(shape, kap)
    return graph, FormContext(CoeffStore(shape, kap)), _nodes_to_degree(graph, 2)


@pytest.mark.parametrize("parts", SHAPES_TO_6, ids=[",".join(map(str, p)) for p in SHAPES_TO_6])
def test_gram_is_diagonal_with_closed_form_norms(parts):
    """Every shape with N <= 6 at the default parameter, to degree 2."""
    graph, ctx, nodes = _setup(parts)
    mat = dense_gram(gram(graph, 2, ctx))
    for i, (alpha, ti) in enumerate(nodes):
        assert mat[i, i] == nsjp_norm(alpha, graph.basis[ti], graph.kappa)
        assert all(mat[i, j] == 0 for j in range(len(nodes)) if j != i)


@pytest.mark.parametrize("parts", SHAPES_TO_6, ids=[",".join(map(str, p)) for p in SHAPES_TO_6])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_cherednik_matrices_are_self_adjoint_for_the_torus_form(parts, data):
    """P_d U_i = U_i^T P_d, P_d the pairing over all degree-d exponents, to degree 2."""
    graph, ctx, _ = _setup(parts)
    exps = list(compositions_of(data.draw(st.integers(0, 2), label="degree"), graph.shape.N))
    u = cherednik_matrix(graph.shape, graph.kappa, exps, data.draw(st.integers(1, graph.shape.N), label="i"))
    pmat, _ = _pairing_block(exps, ctx)
    assert np.array_equal(int_matmul(pmat, u.num), int_matmul(u.num.T, pmat))


def _random_poly(shape, kappa, rng, nterms=3, max_exp=1):
    f = VVLaurent(shape, kappa)
    for _ in range(nterms):
        alpha = tuple(rng.randrange(max_exp + 1) for _ in range(shape.N))
        v = np.array([rng.randrange(-3, 4) for _ in range(shape.dim)], dtype=object)
        f = poly_add(f, VVLaurent(shape, kappa, {alpha: Scaled(v, 1)}))
    return f


def _norm_partition_product(lam, t, kappa):
    """The partition norm as the explicit product of its docstring: the reference for norm_partition."""
    kap, c = kappa.value, t.content
    out = norm0(t)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            for ell in range(1, lam[i] - lam[j] + 1):
                den = ell + kap * (c[i] - c[j])
                if den == 0:
                    raise SpectralCollision("pole")
                out *= 1 - (kap / den) ** 2
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_norm_partition_is_the_explicit_product(n):
    checked = 0
    for shape in valid_shapes(n):
        h = shape.max_hook
        for kappa in (default_kappa(shape.parts), make_kappa(1, h, shape.parts), make_kappa(-1, h, shape.parts), make_kappa(2, 7, shape.parts)):
            lams = {sort_desc(a) for d in range(5) for a in compositions_of(d, n)}
            for lam in sorted(lams):
                for t in enumerate_rsyt(shape):
                    try:
                        expect = _norm_partition_product(lam, t, kappa)
                    except SpectralCollision:
                        with pytest.raises(SpectralCollision):
                            norm_partition(lam, t, kappa)
                        continue
                    assert norm_partition(lam, t, kappa) == expect
                    checked += 1
    assert checked > 50


def _random_rational_laurent(shape, kappa, rng, nterms=6):
    # exponents in {-1, 0}: every alpha - beta lies in grades the session stores already hold
    f = VVLaurent(shape, kappa)
    for _ in range(nterms):
        alpha = tuple(rng.randrange(-1, 1) for _ in range(shape.N))
        v = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 8)) for _ in range(shape.dim)]
        f = poly_add(f, VVLaurent(shape, kappa, {alpha: Scaled.of(v)}))
    return f


def _fractions(mat):
    return np.frompyfunc(lambda x: Fraction(x, mat.den), 1, 1)(mat.num)


def _pair_reference(f, g, store):
    """Sum of fv^T G gv over same-degree term pairs, with G = D cA as Fraction arrays."""
    d = np.array(store.norms, dtype=object)
    out = Fraction(0)
    for alpha, fv in f.terms.items():
        for beta, gv in g.terms.items():
            if sum(alpha) == sum(beta):
                gmat = d[:, None] * _fractions(store.coeff(tuple(a - b for a, b in zip(alpha, beta))))
                out += _fractions(fv) @ gmat @ _fractions(gv)
    return out


@pytest.mark.parametrize("ctx_name", ["ctx21", "ctx31"])
def test_pair_matches_the_fraction_sum(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    shape, kappa = ctx.store.shape, ctx.store.kappa
    rng = random.Random(23)
    nonzero = 0
    grades = set(ctx.store.grades)
    for _ in range(8):
        f = _random_rational_laurent(shape, kappa, rng)
        g = _random_rational_laurent(shape, kappa, rng)
        val = pair(f, g, ctx)
        assert type(val) is Fraction and val == _pair_reference(f, g, ctx.store)
        nonzero += val != 0
    assert nonzero > 4
    assert set(ctx.store.grades) == grades
