import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus import perms
from jacktorus.compositions import compositions_of
from jacktorus.laurent import VVLaurent, cherednik_sum, group_action
from jacktorus.scalars import default_kappa
from jacktorus.tableaux import (
    Scaled,
    jucys_murphy,
    rep_matrix,
    simple_reflection,
    total,
    transposition_matrix,
)
from support import (
    cherednik,
    dense_cherednik,
    dunkl,
    e_shift,
    int_matmul,
    monomial,
    monomial_mul,
    poly_add,
    poly_eq,
    poly_scale,
    poly_sub,
    triangular_lt,
    unchecked_kappa,
    valid_shapes,
)


def leading_exponents(f: VVLaurent) -> list[tuple[int, ...]]:
    """Exponents not triangular-below any other exponent of the same degree."""
    exps = list(f.terms)
    return [a for a in exps if not any(triangular_lt(a, b) for b in exps if b != a)]


def degrees(f: VVLaurent) -> set[int]:
    return {sum(a) for a in f.terms}


def random_poly(shape, kappa, rng, nterms=4, max_exp=2):
    f = VVLaurent(kappa)
    for _ in range(nterms):
        alpha = tuple(rng.randrange(max_exp + 1) for _ in range(shape.N))
        v = np.array([rng.randrange(-4, 5) for _ in range(shape.dim)], dtype=object)
        f = poly_add(f, VVLaurent(kappa, {alpha: Scaled(v, 1)}))
    return f


def random_rational_poly(shape, kappa, rng, nterms=5, max_exp=2):
    """Terms with rational coefficients of assorted denominators, so carriers differ in scale."""
    f = VVLaurent(kappa)
    for _ in range(nterms):
        alpha = tuple(rng.randrange(max_exp + 1) for _ in range(shape.N))
        v = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 9)) for _ in range(shape.dim)]
        f = poly_add(f, VVLaurent(kappa, {alpha: Scaled.of(v)}))
    return f


def fractions(mat):
    """A carrier's entries as a ``Fraction`` array: the reference arithmetic of these tests."""
    return np.frompyfunc(lambda x: Fraction(x, mat.den), 1, 1)(mat.num)


def fraction_terms(f) -> dict:
    return {alpha: list(fractions(v)) for alpha, v in f.terms.items()}


def nonzero(terms: dict) -> dict:
    return {alpha: list(v) for alpha, v in terms.items() if any(x != 0 for x in v)}


@pytest.fixture()
def rng():
    return random.Random(20240817)


def test_group_action_identity(shape21, kappa21, rng):
    f = random_poly(shape21, kappa21, rng)
    assert poly_eq(group_action(perms.identity(3), f), f)


def test_group_action_single_term(shape21, kappa21):
    f = monomial(kappa21, (1, 0, 0), 0)
    g = group_action(perms.simple(3, 1), f)
    s1 = simple_reflection(shape21, 1)
    assert set(g.terms) == {(0, 1, 0)}
    assert g.terms[(0, 1, 0)] == Scaled(s1.num[:, 0], s1.den)


def test_group_action_composition(shape21, kappa21, rng):
    for _ in range(5):
        f = random_poly(shape21, kappa21, rng)
        w1 = tuple(rng.sample([1, 2, 3], 3))
        w2 = tuple(rng.sample([1, 2, 3], 3))
        assert poly_eq(group_action(perms.compose(w1, w2), f), group_action(w1, group_action(w2, f)))


def test_dunkl_annihilates_constants(kappa21):
    f = monomial(kappa21, (0, 0, 0), 1)
    assert not dunkl(1, f).terms


def test_dunkl_degree_one_identity(shape21, kappa21):
    # x_1 D_1 (x_1 (x) T) = x_1 (x) (I + kappa JM_1) T
    m = total([Scaled(np.eye(2, dtype=object), 1), jucys_murphy(shape21, 1) * kappa21.value])
    for ti in range(2):
        f = monomial(kappa21, (1, 0, 0), ti)
        lhs = monomial_mul(dunkl(1, f), (1, 0, 0))
        assert poly_eq(lhs, VVLaurent(kappa21, {(1, 0, 0): Scaled(m.num[:, ti], m.den)}))


def test_dunkl_commute(shape21, kappa21, rng):
    for _ in range(3):
        f = random_poly(shape21, kappa21, rng)
        assert poly_eq(dunkl(1, dunkl(2, f)), dunkl(2, dunkl(1, f)))
        assert poly_eq(dunkl(1, dunkl(3, f)), dunkl(3, dunkl(1, f)))


def test_dunkl_lowers_degree(shape21, kappa21, rng):
    f = random_poly(shape21, kappa21, rng, nterms=2, max_exp=3)
    # restrict to one homogeneous slice
    d = max(degrees(f))
    f = VVLaurent(kappa21, {a: v for a, v in f.terms.items() if sum(a) == d})
    out = dunkl(2, f)
    assert degrees(out) <= {d - 1}


def test_cherednik_constant_spectrum(kappa21):
    basis_contents = [(1, -1, 0), (-1, 1, 0)]
    for ti, c in enumerate(basis_contents):
        f = monomial(kappa21, (0, 0, 0), ti)
        for i in range(1, 4):
            expect = poly_scale(f, 1 + kappa21.value * c[i - 1])
            assert poly_eq(cherednik(i, f), expect)


def test_cherednik_commute_and_preserve_degree(shape21, kappa21, rng):
    for _ in range(3):
        f = random_poly(shape21, kappa21, rng)
        assert poly_eq(cherednik(1, cherednik(2, f)), cherednik(2, cherednik(1, f)))
        g = cherednik(3, f)
        assert degrees(g) <= degrees(f)


def test_cherednik_e_shift_commutation(shape21, kappa21, rng):
    # U_i(e_N^m f) = m e_N^m f + e_N^m U_i f
    f = random_poly(shape21, kappa21, rng, nterms=3)
    for m in (1, 2):
        for i in (1, 2, 3):
            lhs = cherednik(i, e_shift(m, f))
            rhs = poly_add(poly_scale(e_shift(m, f), m), e_shift(m, cherednik(i, f)))
            assert poly_eq(lhs, rhs)


def test_hecke_relations(shape21, kappa21, rng):
    # s_i U_i s_i = U_{i+1} + kappa s_i  and  U_i s_i = s_i U_{i+1} + kappa
    kap = kappa21.value
    for _ in range(3):
        f = random_poly(shape21, kappa21, rng)
        for i in (1, 2):
            si = perms.simple(3, i)
            sf = group_action(si, f)
            lhs = group_action(si, cherednik(i, sf))
            rhs = poly_add(cherednik(i + 1, f), poly_scale(sf, kap))
            assert poly_eq(lhs, rhs)
            lhs2 = cherednik(i, sf)
            rhs2 = poly_add(group_action(si, cherednik(i + 1, f)), poly_scale(f, kap))
            assert poly_eq(lhs2, rhs2)


def test_intertwining_with_group(shape21, kappa21, rng):
    # w D_i = D_{w(i)} w
    for _ in range(4):
        f = random_poly(shape21, kappa21, rng)
        w = tuple(rng.sample([1, 2, 3], 3))
        for i in (1, 2, 3):
            assert poly_eq(group_action(w, dunkl(i, f)), dunkl(w[i - 1], group_action(w, f)))


def test_e_shift_examples(shape21, kappa21, rng):
    f = random_poly(shape21, kappa21, rng)
    assert e_shift(0, f) is f
    assert poly_eq(e_shift(-2, e_shift(2, f)), f)
    one = monomial(kappa21, (0, 0, 0), 0)
    assert set(e_shift(1, one).terms) == {(1, 1, 1)}


def test_leading_exponents_on_monomial(kappa21):
    f = monomial(kappa21, (2, 0, 1), 0)
    assert leading_exponents(f) == [(2, 0, 1)]


@pytest.mark.parametrize("shape_name", ["shape21", "shape31"])
def test_group_action_matches_fraction_products(shape_name, request, rng):
    shape = request.getfixturevalue(shape_name)
    kappa = request.getfixturevalue(shape_name.replace("shape", "kappa"))
    for _ in range(6):
        f = random_rational_poly(shape, kappa, rng)
        w = tuple(rng.sample(range(1, shape.N + 1), shape.N))
        mat = fractions(rep_matrix(shape, w))
        expect = {perms.act(w, alpha): mat @ fractions(v) for alpha, v in f.terms.items()}
        assert fraction_terms(group_action(w, f)) == nonzero(expect)


def dunkl_reference(i, f) -> dict:
    """D_i on Fraction arrays, term by term, as the package computed it before carriers."""
    shape, kap = f.kappa.shape, f.kappa.value
    out: dict = {}

    def add(alpha, v):
        out[alpha] = out[alpha] + v if alpha in out else v

    for alpha, v in f.terms.items():
        v = fractions(v)
        a_i = alpha[i - 1]
        if a_i > 0:
            add(alpha[: i - 1] + (a_i - 1,) + alpha[i:], v * Fraction(a_i))
        for j in range(1, shape.N + 1):
            if j == i or alpha[j - 1] == a_i:
                continue
            b = alpha[j - 1]
            sv = (fractions(transposition_matrix(shape, i, j)) @ v) * (kap if a_i > b else -kap)
            base = list(alpha)
            for p in range(min(a_i, b), max(a_i, b)):
                base[i - 1] = p
                base[j - 1] = a_i + b - 1 - p
                add(tuple(base), sv)
    return nonzero(out)


@pytest.mark.parametrize("shape_name", ["shape21", "shape31"])
def test_dunkl_matches_fraction_products(shape_name, request, rng):
    shape = request.getfixturevalue(shape_name)
    kappa = request.getfixturevalue(shape_name.replace("shape", "kappa"))
    for _ in range(4):
        f = random_rational_poly(shape, kappa, rng, max_exp=3)
        for i in range(1, shape.N + 1):
            assert fraction_terms(dunkl(i, f)) == dunkl_reference(i, f)


def test_terms_are_reduced_carriers(shape31, kappa31, rng):
    f = random_rational_poly(shape31, kappa31, rng)
    polys = [f, dunkl(2, f), group_action((2, 4, 1, 3), f), poly_scale(f, Fraction(3, 7)), poly_sub(f, poly_scale(f, Fraction(1, 3)))]
    for g in polys:
        for v in g.terms.values():
            assert v.num.shape == (shape31.dim,) and v.num.any()
            assert type(v.den) is int and v.den > 0
            assert math.gcd(v.den, *v.num.flat) == 1


@pytest.mark.parametrize("shape", [s for n in range(3, 6) for s in valid_shapes(n)], ids=lambda s: str(s.parts))
def test_cherednik_matrix_columns_are_the_termwise_operator(shape):
    """Every shape with N <= 5, degrees <= 2, every i: column x^alpha (x) T is cherednik(i, x^alpha (x) T)."""
    kappa, dim = default_kappa(shape.parts), shape.dim
    for d in range(3):
        exps = list(compositions_of(d, shape.N))
        for i in range(1, shape.N + 1):
            u = dense_cherednik(kappa, exps, i)
            assert u.num.shape == (len(exps) * dim,) * 2
            for c, (alpha, t) in enumerate(itertools.product(exps, range(dim))):
                expect = cherednik(i, monomial(kappa, alpha, t))
                assert set(expect.terms) <= set(exps)
                for r, beta in enumerate(exps):
                    block = u.num[r * dim : (r + 1) * dim, c]
                    v = expect.terms.get(beta)
                    assert np.array_equal(block * v.den, v.num * u.den) if v else not block.any()


def test_cherednik_matrix_needs_rows_closed_under_the_operator(shape21, kappa21):
    # U_2 x^(0,1,0) has a term at x^(1,0,0), which is not a row
    with pytest.raises(KeyError):
        cherednik_sum(kappa21, [(0, 1, 0)], (0, 1, 0), np.eye(shape21.dim, dtype=object))


@pytest.mark.parametrize("shape", [s for n in range(3, 7) for s in valid_shapes(n)], ids=lambda s: str(s.parts))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_cherednik_matrices_commute(shape, data):
    """U_i U_j = U_j U_i exactly on every degree <= 2, at any rational parameter."""
    kappa = unchecked_kappa(data.draw(st.integers(-7, 7), label="p"), data.draw(st.integers(1, 9), label="q"), shape.parts)
    exps = list(compositions_of(data.draw(st.integers(0, 2), label="degree"), shape.N))
    i, j = data.draw(st.lists(st.integers(1, shape.N), min_size=2, max_size=2, unique=True), label="i, j")
    ui, uj = (dense_cherednik(kappa, exps, k).num for k in (i, j))
    assert np.array_equal(int_matmul(ui, uj), int_matmul(uj, ui))
