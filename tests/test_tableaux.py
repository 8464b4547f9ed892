import itertools
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus import perms
from jacktorus.errors import InvalidShape
from jacktorus.tableaux import (
    Partition,
    RSYT,
    Scaled,
    enumerate_rsyt,
    jucys_murphy,
    norm0,
    norm0_diag,
    rep_matrix,
    simple_reflection,
    t_zero,
)
import support
from support import _limb_bits, int_matmul, valid_shapes

CONTENTS_31 = {(2, 1, -1, 0), (2, -1, 1, 0), (-1, 2, 1, 0)}
CONTENTS_311 = {
    (2, 1, -2, -1, 0),
    (2, -2, 1, -1, 0),
    (-2, 2, 1, -1, 0),
    (2, -2, -1, 1, 0),
    (-2, 2, -1, 1, 0),
    (-2, -1, 2, 1, 0),
}


def ident(dim):
    return Scaled(np.eye(dim, dtype=object), 1)


def test_content_lists_31():
    assert {t.content for t in enumerate_rsyt(Partition((3, 1)))} == CONTENTS_31


def test_content_lists_311():
    assert {t.content for t in enumerate_rsyt(Partition((3, 1, 1)))} == CONTENTS_311


def test_enumeration_count_21():
    # 3!/(3*1*1) = 2 fillings, by brute hook count
    assert len(enumerate_rsyt(Partition((2, 1)))) == 2


def test_dim_past_the_int64_range():
    # the hook product of (21, 1) is 22 * 20!, which overflows int64
    shape = Partition((21, 1))
    assert shape.hook_product() == 22 * factorial(20)
    assert shape.dim == 21 == len(enumerate_rsyt(shape))


def test_dim_takes_the_hook_product_once(monkeypatch):
    calls = []
    real = Partition.hook_product
    monkeypatch.setattr(Partition, "hook_product", lambda self: calls.append(self) or real(self))
    shape = Partition((4, 2, 1))
    assert [shape.dim for _ in range(3)] == [35, 35, 35]
    assert len(calls) == 1
    assert shape == Partition((4, 2, 1)) and hash(shape) == hash(Partition((4, 2, 1)))


def test_canonical_order_is_decreasing_lex():
    for shape in (Partition((3, 1)), Partition((3, 1, 1)), Partition((2, 2))):
        contents = [t.content for t in enumerate_rsyt(shape)]
        assert contents == sorted(contents, reverse=True)


def test_t_zero_331():
    assert t_zero(Partition((3, 3, 1))).content == (1, 2, 0, 1, -2, -1, 0)


def test_t_zero_21():
    t0 = t_zero(Partition((2, 1)))
    assert t0.rows == ((3, 1), (2,))
    assert t0.content == (1, -1, 0)


def test_t_zero_311_heads_canonical_list():
    shape = Partition((3, 1, 1))
    assert t_zero(shape).content == (2, 1, -2, -1, 0)
    assert enumerate_rsyt(shape)[0] == t_zero(shape)


def test_invalid_shapes():
    with pytest.raises(InvalidShape):
        Partition((4,))
    with pytest.raises(InvalidShape):
        Partition((1, 1))
    with pytest.raises(InvalidShape):
        Partition((2, 3))


def test_norm0_values_21():
    ta, tb = enumerate_rsyt(Partition((2, 1)))
    assert ta.content == (1, -1, 0) and norm0(ta) == 1
    assert tb.content == (-1, 1, 0) and norm0(tb) == Fraction(3, 4)


def test_norm0_empty_product():
    # contents (0, 1, -1, 0): no pair satisfies c(i) <= c(j) - 2
    t = RSYT(((4, 2), (3, 1)))
    assert t.content == (0, 1, -1, 0)
    assert norm0(t) == 1


def test_simple_reflection_21_block():
    shape = Partition((2, 1))
    s1 = simple_reflection(shape, 1)
    assert s1 == Scaled.of([
        [Fraction(1, 2), Fraction(3, 4)],
        [Fraction(1), Fraction(-1, 2)],
    ])
    s2 = simple_reflection(shape, 2)
    assert s2 == Scaled.of([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]])


def test_simple_reflection_out_of_range():
    with pytest.raises(IndexError):
        simple_reflection(Partition((2, 1)), 3)


def test_rep_matrix_braid_and_identity():
    shape = Partition((2, 1))
    assert rep_matrix(shape, perms.identity(3)) == ident(2)
    w131 = perms.compose(perms.simple(3, 1), perms.compose(perms.simple(3, 2), perms.simple(3, 1)))
    w212 = perms.compose(perms.simple(3, 2), perms.compose(perms.simple(3, 1), perms.simple(3, 2)))
    assert w131 == w212
    m = rep_matrix(shape, w131)
    assert m @ m == ident(2)


def test_jucys_murphy_21_and_31():
    shape = Partition((2, 1))
    assert jucys_murphy(shape, 1).num.tolist() == [[1, 0], [0, -1]] and jucys_murphy(shape, 1).den == 1
    assert jucys_murphy(shape, 3) == ident(2) * 0
    shape31 = Partition((3, 1))
    jm = jucys_murphy(shape31, 2)
    diag = [Fraction(jm.num[k, k], jm.den) for k in range(3)]
    assert diag == [t.content[1] for t in enumerate_rsyt(shape31)]


@pytest.mark.parametrize("n", range(3, 7))
def test_representation_suite(n):
    """Involutions, braid relations, commutations, D-orthogonality, JM diagonality."""
    for shape in valid_shapes(n):
        dim = shape.dim
        dmat = Scaled.of(np.diag(np.array(norm0_diag(shape), dtype=object)))
        gens = [simple_reflection(shape, i) for i in range(1, n)]
        for s in gens:
            assert s @ s == ident(dim)
            assert s.T @ dmat @ s == dmat
        for i in range(len(gens) - 1):
            a, b = gens[i], gens[i + 1]
            assert a @ b @ a == b @ a @ b
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                assert gens[i] @ gens[j] == gens[j] @ gens[i]
        basis = enumerate_rsyt(shape)
        for i in range(1, n + 1):
            jm = jucys_murphy(shape, i)
            for a in range(dim):
                for b in range(dim):
                    expect = basis[a].content[i - 1] if a == b else 0
                    assert Fraction(jm.num[a, b], jm.den) == expect
        assert len(basis) * shape.hook_product() == factorial(n)


def test_norm_relation_under_entry_swap():
    # <T', T'>_0 = (1 - b^2) <T, T>_0 for the seminormal pair with 0 < b <= 1/2
    for shape in valid_shapes(5):
        for t in enumerate_rsyt(shape):
            for i in range(1, shape.N):
                diff = t.content[i - 1] - t.content[i]
                if diff >= 2:
                    b = Fraction(1, diff)
                    assert norm0(t.swap_entries(i)) == (1 - b * b) * norm0(t)


def test_rep_matrix_table_is_built_by_right_multiplication():
    # sigma(id) = I and sigma(w s_i) = sigma(w) sigma(s_i) for every w and i, all shapes with N <= 5
    for n in range(3, 6):
        for shape in valid_shapes(n):
            assert rep_matrix(shape, perms.identity(n)) == ident(shape.dim)
            for w in itertools.permutations(range(1, n + 1)):
                for i in range(1, n):
                    ws = perms.compose(w, perms.simple(n, i))
                    assert rep_matrix(shape, ws) == rep_matrix(shape, w) @ simple_reflection(shape, i)


def test_scaled_equality_compares_shapes_first():
    square = Scaled(np.array([[1, 1], [1, 1]], dtype=object), 1)
    assert square != Scaled(np.array([1, 1], dtype=object), 1)
    assert square != Scaled(np.array([[1]], dtype=object), 1)
    assert Scaled(np.array([1, 1], dtype=object), 1) != square
    assert square == Scaled(np.array([[2, 2], [2, 2]], dtype=object), 2)
    assert square != Scaled(np.array([[1, 1], [1, 2]], dtype=object), 1)


def test_texts_are_lowest_terms():
    mat = Scaled(np.array([[2, -3], [0, 6]], dtype=object), 6)
    assert mat.texts() == [["1/3", "-1/2"], ["0", "1"]]
    assert Scaled(np.array([4, 2], dtype=object), 4).texts() == ["1", "1/2"]


@st.composite
def _int_matrix_pair(draw):
    """Two Python-int matrices (m x K, K x n) whose entries straddle s, 2s and ~200 bits."""
    k = draw(st.one_of(st.integers(1, 8), st.sampled_from([63, 64, 1000, 4095, 4096])), label="K")
    m, n = draw(st.integers(0, 3), label="m"), draw(st.integers(0, 3), label="n")
    s = _limb_bits(k)
    edges = [0, (1 << s) - 1, 1 << s, (1 << 2 * s) - 1, 1 << 2 * s]
    widths = st.sampled_from([s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, 199, 200])
    value = st.one_of(
        st.sampled_from(edges + [-x for x in edges]),
        widths.flatmap(lambda b: st.integers(-(1 << b), 1 << b)),
    )
    rnd = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))

    def matrix(rows, cols):
        pool = [0] if draw(st.booleans(), label="zero") else draw(st.lists(value, min_size=1, max_size=8))
        return np.array([[rnd.choice(pool) for _ in range(cols)] for _ in range(rows)], dtype=object).reshape(rows, cols)

    return matrix(m, k), matrix(k, n)


@settings(max_examples=100, deadline=None)
@given(pair=_int_matrix_pair())
def test_int_matmul_is_the_object_product(pair):
    a, b = pair
    out = int_matmul(a, b)
    expect = a @ b
    assert out.dtype == object and out.shape == expect.shape
    assert all(type(x) is int for x in out.flat)
    assert np.array_equal(out, expect)


@pytest.mark.parametrize("k", [1, 2, 63, 64, 4095, 4096])
@pytest.mark.parametrize("width", ["s", "2s", "200"])
@pytest.mark.parametrize("top", [0, 1], ids=["2^w-1", "2^w"])
def test_int_matmul_at_the_int64_bound(k, width, top):
    # all-ones entries fill every limb: K products of 2^s - 1 limbs make the largest partial
    # sum, K (2^s - 1)^2 < 2^53, the float64 bound that the limb width keeps (the name is from
    # the int64 limbs that came before)
    s = _limb_bits(k)
    x = (1 << {"s": s, "2s": 2 * s, "200": 200}[width]) - 1 + top
    a = np.full((2, k), x, dtype=object)
    b = np.full((k, 2), -x, dtype=object)
    b[:, 1] = x
    assert np.array_equal(int_matmul(a, b), a @ b)


@pytest.mark.parametrize("x", [1 << 62, (1 << 63) - 1, 1 << 63, (1 << 64) + 3])
def test_int_matmul_on_either_side_of_the_int64_entries(x):
    # a factor whose entries all lie below 2^63 in magnitude is cut into limbs by int64 shifts,
    # any other by Python-int shifts
    a = np.array([[x, -x, 1], [-1, x - 1, -x]], dtype=object)
    b = np.array([[x, 0], [-x, 1], [3, -x]], dtype=object)
    out = int_matmul(a, b)
    assert np.array_equal(out, a @ b) and all(type(v) is int for v in out.flat)


def test_a_limb_one_bit_too_wide_breaks_the_product(monkeypatch):
    # the bound is tight enough to matter: with every limb one bit wider, some K's all-ones
    # product has partial sums past 2^53 that float64 rounds
    real = support._limb_bits
    monkeypatch.setattr(support, "_limb_bits", lambda k: real(k) + 1)
    wrong = []
    for k in (1, 2, 63, 64, 4095, 4096):
        x = (1 << real(k) + 1) - 1
        a = np.full((2, k), x, dtype=object)
        b = np.full((k, 2), -x, dtype=object)
        b[:, 1] = x
        if not np.array_equal(int_matmul(a, b), a @ b):
            wrong.append(k)
    assert wrong


_BIG = st.integers(-(2**260), 2**260)
_ENTRY = st.one_of(st.just(0), st.integers(-300, 300), _BIG)
_DEN = st.one_of(st.just(1), st.integers(1, 300), st.integers(1, 2**240))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data(), den=_DEN)
def test_texts_match_fraction_strings(rows, cols, data, den):
    entries = data.draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols))
    mat = Scaled(np.array(entries, dtype=object).reshape(rows, cols), den)
    texts = mat.texts()
    assert [x for row in texts for x in row] == [str(Fraction(x, den)) for x in entries]
    # and back: the reduced carrier Scaled.of gives for the same values
    back, ref = Scaled.from_texts(texts), Scaled.of([[Fraction(x) for x in row] for row in texts])
    assert back.den == ref.den
    assert back.num.tolist() == ref.num.tolist()
