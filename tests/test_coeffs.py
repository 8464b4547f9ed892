import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus import coeffs, perms
from jacktorus.coeffs import CoeffStore
from jacktorus.compositions import canonicalize, enumerate_Z, sort_desc, split_pi_nu
from jacktorus.errors import PoleExcluded, StoreCorrupt
from jacktorus.scalars import default_kappa, make_kappa
from jacktorus.tableaux import (
    Partition,
    Scaled,
    jucys_murphy,
    rep_matrix,
    simple_reflection,
    total,
    transposition_matrix,
)
from jacktorus.torusform import nsjp_norm
from support import triangular_lt, unchecked_kappa, valid_shapes


def is_zero(mat) -> bool:
    if isinstance(mat, Scaled):
        mat = mat.num
    return bool(np.all(mat == 0))


def ident(dim):
    return Scaled(np.eye(dim, dtype=object), 1)


def test_grade_zero_is_identity(store21):
    assert store21.coeff((0, 0, 0)) == ident(2)


def test_off_lattice_is_zero(store21):
    assert is_zero(store21.coeff((1, 0, 0)))
    assert is_zero(store21.coeff((2, -1, 0)))


def test_grade_one_closed_form(store21, shape21, kappa21):
    # (I + kappa JM_1) cA_{e1-e2} = -kappa sigma(1,2)
    kap = kappa21.value
    lhs = total([ident(2), jucys_murphy(shape21, 1) * kap]) @ store21.coeff((1, -1, 0))
    rhs = transposition_matrix(shape21, 1, 2) * (-kap)
    assert lhs == rhs


def test_grade_one_closed_form_all_columns(store31, shape31, kappa31):
    kap = kappa31.value
    left = total([ident(3), jucys_murphy(shape31, 1) * kap])
    for j in (2, 3, 4):
        gamma = tuple(1 if k == 0 else (-1 if k == j - 1 else 0) for k in range(4))
        lhs = left @ store31.coeff(gamma)
        assert lhs == transposition_matrix(shape31, 1, j) * (-kap)


def test_displayed_grade_two_relations(store31, shape31, kappa31):
    """The three worked grade-2 relations, in the carried sigma form."""
    kap = kappa31.value
    n = 4
    left2 = total([ident(3)] + [transposition_matrix(shape31, 1, i) * kap for i in range(3, n + 1)])

    def A(*gamma):
        return store31.coeff(gamma)

    def sig(i, j):
        return transposition_matrix(shape31, i, j)

    # (I + k sum sig(1,i)) A_{e1+e2-2e_j} = -k (A_{e2-e1} + A_{e2-e_j}) sig(1,j)
    for j in (3, 4):
        gamma = [0] * n
        gamma[0] = 1
        gamma[1] = 1
        gamma[j - 1] = -2
        e2_minus_ej = [0] * n
        e2_minus_ej[1] = 1
        e2_minus_ej[j - 1] = -1
        lhs = left2 @ A(*gamma)
        rhs = total([A(-1, 1, 0, 0), A(*e2_minus_ej)]) @ sig(1, j) * (-kap)
        assert lhs == rhs

    # (I + k sum sig(1,i)) A_{e1+e2-e_j-e_{j+1}} = -k (A_{e2-e_j} sig(1,j+1) + A_{e2-e_{j+1}} sig(1,j))
    j = 3
    lhs = left2 @ A(1, 1, -1, -1)
    rhs = total([A(0, 1, -1, 0) @ sig(1, 4), A(0, 1, 0, -1) @ sig(1, 3)]) * (-kap)
    assert lhs == rhs

    # (2I + k JM_1) A_{2e1-2eN} = -k { sum_{l=2}^{N-1} sig(1,l) A_{e1+el-2eN}
    #                                  + sig(1,N) A_{e1-eN} + (A_{e1-eN} + I) sig(1,N) }
    lhs = total([ident(3) * 2, jucys_murphy(shape31, 1) * kap]) @ A(2, 0, 0, -2)
    inner = total([
        sig(1, 2) @ A(1, 1, 0, -2),
        sig(1, 3) @ A(1, 0, 1, -2),
        sig(1, 4) @ A(1, 0, 0, -1),
        total([A(1, 0, 0, -1), ident(3)]) @ sig(1, 4),
    ])
    assert lhs == inner * (-kap)


def test_adjoint_relation_on_pairing(store21):
    # carried form of A_{-g} = A_g^T: the pairing matrices satisfy G_{-g} = G_g^T
    for n in range(1, 4):
        for gamma in enumerate_Z(3, n):
            neg = tuple(-g for g in gamma)
            assert store21.pairing_matrix(neg) == store21.pairing_matrix(gamma).T


def test_conjugation_covariance(store21, shape21):
    rng = random.Random(5)
    gammas = [g for n in range(1, 4) for g in enumerate_Z(3, n)]
    for _ in range(12):
        gamma = rng.choice(gammas)
        w = tuple(rng.sample([1, 2, 3], 3))
        wg = perms.act(w, gamma)
        lhs = store21.coeff(wg)
        mat = rep_matrix(shape21, w)
        mat_inv = rep_matrix(shape21, perms.inverse(w))
        assert lhs == mat @ store21.coeff(gamma) @ mat_inv


class ShuffledStore(CoeffStore):
    """Solves each negative-part class in a random triangular-respecting order."""

    def __init__(self, kappa, seed):
        super().__init__(kappa)
        self._rng = random.Random(seed)

    def _class_order(self, block):
        pis = {g: split_pi_nu(g)[0] for g in block}
        placed: list = []
        remaining = list(block)
        while remaining:
            ready = [
                g
                for g in remaining
                if all(
                    h in placed
                    for h in block
                    if h != g and triangular_lt(pis[h], pis[g])
                )
            ]
            pick = self._rng.choice(ready)
            placed.append(pick)
            remaining.remove(pick)
        return placed


@pytest.mark.parametrize("seed", [1, 2])
def test_solve_order_independence(shape21, kappa21, store21, seed):
    other = ShuffledStore(kappa21, seed)
    other.ensure_grade(3)
    for n in range(4):
        assert set(other.grades[n]) == set(store21.grades[n])
        for g in other.grades[n]:
            assert np.all(other.grades[n][g] == store21.grades[n][g])


def _rref_solve(columns, target):
    """Exact least-structure solve: express target in the span of the columns."""
    rows = len(target)
    ncols = len(columns)
    aug = [[columns[c][r] for c in range(ncols)] + [target[r]] for r in range(rows)]
    piv_rows = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
        piv_rows.append(c)
        r += 1
    sol = [Fraction(0)] * ncols
    for row, col in enumerate(piv_rows):
        sol[col] = aug[row][-1]
    # consistency: all-zero rows must carry zero targets
    for k in range(r, rows):
        assert all(x == 0 for x in aug[k][:-1]) and aug[k][-1] == 0
    return sol


def test_pairing_against_independent_jack_expansion(kappa21, store21, graph21):
    """Dual-route check: expand monomials in the Jack basis, pair with the
    closed-form norms, and compare against the recurrence-built pairing."""
    for d in (1, 2):
        nodes = graph21.build_degree(d)
        polys = [graph21.nsjp_laurent(node.alpha, node.t_index) for node in nodes]
        exps = sorted({a for poly in polys for a in poly.terms})

        def stack(poly):
            col = [Fraction(0)] * (len(exps) * 2)
            for a, v in poly.terms.items():
                for k in range(2):
                    col[exps.index(a) * 2 + k] = Fraction(v.num[k], v.den)
            return col

        columns = [stack(poly) for poly in polys]
        norms = [nsjp_norm(node.alpha, node.tableau, kappa21) for node in nodes]

        def monomial_coords(alpha, t_index):
            target = [Fraction(0)] * (len(exps) * 2)
            target[exps.index(alpha) * 2 + t_index] = Fraction(1)
            return _rref_solve(columns, target)

        for alpha in exps:
            for beta in exps:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                got = store21.pairing_matrix(gamma)
                for ti in range(2):
                    ci = monomial_coords(alpha, ti)
                    for tj in range(2):
                        cj = monomial_coords(beta, tj)
                        expect = sum(
                            ci[k] * cj[k] * norms[k] for k in range(len(nodes))
                        )
                        assert Fraction(got.num[ti, tj], got.den) == expect, (alpha, beta, ti, tj)


def test_pole_raised_inside_recurrence():
    bad = unchecked_kappa(-1, 2, (3, 1))
    store = CoeffStore(bad)
    with pytest.raises(PoleExcluded) as err:
        store.solve_grade(1)
    # gamma_1 + kappa c = 0 at gamma_1 = 1, c = 2
    assert err.value.witness_m == 1
    assert err.value.witness_c == 2


GATE_SHAPES = [s.parts for n in range(3, 6) for s in valid_shapes(n)]


@st.composite
def _kappa_near_the_gate(draw, parts):
    """+-m/c with m <= 8 and c up to one past the largest content of the shape
    (the pole set and its neighbours), or an edge +-1/h of the PSD window;
    moved by 0 or by +-1/r for r in 7..60."""
    sign = draw(st.sampled_from([-1, 1]), label="sign")
    if draw(st.booleans(), label="near a pole"):
        c = draw(st.integers(1, max(parts[0], len(parts))), label="c")
        base = Fraction(sign * draw(st.integers(1, 8), label="m"), c)
    else:
        base = Fraction(sign, Partition(parts).max_hook)
    shift = draw(st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.sampled_from([-1, 1]), st.integers(7, 60))))
    return base + shift


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pole_gate_admits_only_kappas_the_recurrence_can_solve(data):
    """Soundness of make_kappa: every kappa it accepts solves to grade 4 without
    PoleExcluded.  The converse does not hold at a fixed grade: the gate is a
    superset of the recurrence's zero divisors."""
    parts = data.draw(st.sampled_from(GATE_SHAPES), label="shape")
    kappa = data.draw(_kappa_near_the_gate(parts), label="kappa")
    try:
        kap = make_kappa(kappa.numerator, kappa.denominator, parts)
    except PoleExcluded:
        return
    CoeffStore(kap).ensure_grade(4)


def test_selfadjoint_residuals(store21):
    rng = random.Random(99)
    assert is_zero(store21.verify_selfadjoint((1, 1, 0), (1, 1, 0), 2))
    for _ in range(20):
        d = rng.randrange(1, 4)

        def comp():
            cuts = sorted(rng.randrange(0, d + 1) for _ in range(2))
            return (cuts[0], cuts[1] - cuts[0], d - cuts[1])

        res = store21.verify_selfadjoint(comp(), comp(), rng.randrange(1, 4))
        assert is_zero(res)


def test_selfadjoint_requires_equal_degree(store21):
    with pytest.raises(ValueError):
        store21.verify_selfadjoint((1, 0, 0), (2, 0, 0), 1)


def test_persistence_round_trip(tmp_path, kappa21):
    store = CoeffStore(kappa21).ensure_grade(2)
    path = tmp_path / "store.json"
    store.save(path)
    bytes_a = path.read_bytes()
    loaded = CoeffStore.load(path, kappa21)
    assert loaded.sealed_grade == 2
    for n in range(3):
        for g, mat in store.grades[n].items():
            assert np.all(loaded.grades[n][g] == mat)
    loaded.ensure_grade(3)
    loaded.save(path)
    reloaded = CoeffStore.load(path, kappa21)
    assert reloaded.sealed_grade == 3
    # determinism: saving the same content twice gives identical bytes
    store.save(path)
    assert path.read_bytes() == bytes_a


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, kappa21):
    path = tmp_path / "store.json"
    CoeffStore(kappa21).ensure_grade(1).save(path)
    before = path.read_bytes()
    real_write = Path.write_text

    def half_then_fail(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        CoeffStore(kappa21).ensure_grade(2).save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert CoeffStore.load(path, kappa21).sealed_grade == 1
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


def test_load_rejects_wrong_kappa(tmp_path, kappa21):
    store = CoeffStore(kappa21).ensure_grade(1)
    path = tmp_path / "store.json"
    store.save(path)
    other = make_kappa(1, 5, (2, 1))
    with pytest.raises(StoreCorrupt):
        CoeffStore.load(path, other)


def test_canonical_reps_cover_orbits(store21):
    for n in range(1, 4):
        reps = set(store21.grades[n])
        assert reps == {g for g in enumerate_Z(3, n) if g == sort_desc(g)}
        covered = {tuple(perms.act(w, g)) for g in reps for w in _all_perms(3)}
        assert covered == set(enumerate_Z(3, n))


def _all_perms(n):
    import itertools

    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


# sha256 of the saved store, recorded from the Fraction recurrence; kappa None is the
# default parameter, and the other parameters lie outside the positivity window, where
# some rows q g1 + p c(m,T) of the left operator are negative
STORE_DIGESTS = {
    ((2, 1), None, 5): "442666f0a3943a38993a3ea56c4c35d5f269c34127b4087007b332462e3ff040",
    ((3, 1), None, 4): "0d6be39205bc37d49795013e170217ab6ffd48d1ca1b8fc42427bb416b75a099",
    ((2, 2), None, 4): "21a2ed2e93e1c75088d179d54697a4f7e376f92a7855e4d1ae4e3b6890199afa",
    ((3, 1, 1), None, 3): "be6d187a2d84411c713a16dc0e27569182738da980338a96631613585dde341a",
    ((2, 1), (-3, 2), 4): "10ff42e534b57b46dcfabac7bd57eab87eca5de55ca20999a8e13fd3a7df2aa5",
    ((3, 1), (3, 2), 3): "00814f5269e157e8abf5b69e3eed95fefb9f51714ba7587bb046c15947fe81b1",
    ((2, 2), (-3, 2), 3): "2c1ba071cc490ce6b09256b47c77eb86f98d4021c507107cee8bda63bb54c581",
}


def _kappa(parts, pq):
    return default_kappa(parts) if pq is None else make_kappa(*pq, parts)


@pytest.mark.parametrize("parts, pq, grade", list(STORE_DIGESTS), ids=str)
def test_store_bytes_match_the_golden_digest(tmp_path, parts, pq, grade):
    path = tmp_path / "store.json"
    CoeffStore(_kappa(parts, pq)).ensure_grade(grade).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STORE_DIGESTS[(parts, pq, grade)]


@pytest.fixture(scope="module")
def stores_to_grade_4():
    return [
        CoeffStore(default_kappa(shape.parts)).ensure_grade(4)
        for n in range(3, 6)
        for shape in valid_shapes(n)
    ]


def _selfadjoint_everywhere(store, top: int) -> int:
    checked = 0
    for n in range(1, top + 1):
        for gamma in store.grades[n]:
            alpha = tuple(max(g, 0) for g in gamma)
            beta = tuple(max(-g, 0) for g in gamma)
            for i in range(1, store.N + 1):
                res = store.verify_selfadjoint(alpha, beta, i)
                assert not res.num.any(), (store.shape.parts, store.kappa.value, gamma, i)
                checked += 1
    return checked


def test_selfadjoint_at_every_stored_index(stores_to_grade_4):
    assert sum(_selfadjoint_everywhere(store, 4) for store in stores_to_grade_4) > 1000


@pytest.mark.parametrize("parts, pq", [((2, 1), (-3, 2)), ((3, 1), (3, 2)), ((2, 2), (-3, 2))], ids=str)
def test_selfadjoint_outside_the_window(parts, pq):
    store = CoeffStore(_kappa(parts, pq)).ensure_grade(3)
    assert _selfadjoint_everywhere(store, 3) > 20


def test_carriers_are_canonical(stores_to_grade_4, graph21, graph31):
    carriers = []
    for store in stores_to_grade_4:
        n, shape = store.N, store.shape
        carriers += [m for grade in store.grades.values() for m in grade.values()]
        carriers += [rep_matrix(shape, w) for w in _all_perms(n)]
        carriers += [simple_reflection(shape, i) for i in range(1, n)]
        carriers += [jucys_murphy(shape, i) for i in range(1, n + 1)]
        stored = [g for grade in store.grades.values() for g in grade]
        carriers += [store.coeff(g) for g in stored] + [store.pairing_matrix(g) for g in stored]
    for graph in (graph21, graph31):
        carriers += [Scaled(node.num, node.den) for d in range(4) for node in graph.build_degree(d)]
    for mat in carriers:
        assert type(mat.den) is int and mat.den > 0
        assert all(type(x) is int for x in mat.num.flat)
        assert math.gcd(mat.den, *mat.num.flat) == 1


@pytest.mark.parametrize("parts, pq, grade", list(STORE_DIGESTS), ids=str)
def test_saved_store_loads_to_the_solved_carriers(tmp_path, parts, pq, grade):
    path = tmp_path / "store.json"
    store = CoeffStore(_kappa(parts, pq)).ensure_grade(grade)
    store.save(path)
    loaded = CoeffStore.load(path, store.kappa)
    assert loaded.sealed_grade == grade
    assert loaded.grades.keys() == store.grades.keys()
    for n, grade_mats in store.grades.items():
        assert loaded.grades[n].keys() == grade_mats.keys()
        for g, mat in grade_mats.items():
            assert loaded.grades[n][g].den == mat.den
            assert loaded.grades[n][g].num.tolist() == mat.num.tolist()


# every valid shape with N <= 5, with the grade each is checked to
_MEMO_CASES = [(shape, {3: 3, 4: 2, 5: 2}[n]) for n in (3, 4, 5) for shape in valid_shapes(n)]


def _direct_conjugates(store, top):
    """sigma(w^{-1}) cA_can sigma(w) at every zero-sum index up to grade top, from the stored grades."""
    out = {}
    for n in range(top + 1):
        for delta in enumerate_Z(store.N, n):
            can, w = canonicalize(delta)
            sig, sig_inv = rep_matrix(store.shape, w), rep_matrix(store.shape, perms.inverse(w))
            out[delta] = sig_inv @ store.grades[n][can] @ sig
    return out


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(_MEMO_CASES), rnd=st.randoms(use_true_random=False))
def test_memoized_moved_carriers_match_a_direct_conjugation(tmp_path_factory, case, rnd):
    shape, top = case
    kappa = default_kappa(shape.parts)
    path = tmp_path_factory.mktemp("memo") / "store.json"
    CoeffStore(kappa).ensure_grade(top - 1).save(path)
    fresh = CoeffStore(kappa)
    extended = CoeffStore.load(path, kappa)
    extended.ensure_grade(top)
    for store in (fresh, extended):
        deltas = [d for n in range(top + 1) for d in enumerate_Z(shape.N, n)]
        rnd.shuffle(deltas)
        got = {d: store.coeff(d) for d in deltas}
        rnd.shuffle(deltas)
        again = {d: store.coeff(d) for d in deltas}
        expected = _direct_conjugates(store, top)
        assert got.keys() == expected.keys()
        for d in deltas:
            assert got[d] == expected[d], (shape.parts, d)
            assert again[d] == got[d]
    assert all(extended.grades[n] == fresh.grades[n] for n in range(top + 1))


def test_a_replaced_stored_matrix_reaches_every_moved_index(kappa21):
    store = CoeffStore(kappa21).ensure_grade(2)
    moved = [d for d in enumerate_Z(3, 2) if canonicalize(d)[0] == (2, -1, -1)]
    before = {d: store.coeff(d) for d in moved}  # now held in the memo
    store.grades[2][(2, -1, -1)] = store.grades[2][(2, -1, -1)] * 2
    assert len(moved) == 3
    for d in moved:
        assert store.coeff(d) == before[d] * 2


@pytest.mark.parametrize("parts, top", [((2, 1), 3), ((2, 2, 1), 2)])
def test_lookups_keep_no_per_index_state(parts, top):
    shape = Partition(parts)
    store = CoeffStore(default_kappa(parts)).ensure_grade(top)

    def sizes():
        attrs = {name: len(val) for name, val in vars(store).items() if isinstance(val, dict)}
        return attrs, {n: len(grade) for n, grade in store.grades.items()}

    before = sizes()
    for n in range(top + 1):
        for delta in enumerate_Z(shape.N, n):
            store.coeff(delta)
            store.pairing_matrix(delta)
    assert sizes() == before


def test_one_ensure_grade_call_canonicalizes_each_index_at_most_once(tmp_path, monkeypatch):
    shape = Partition((3, 1, 1))
    kappa = default_kappa(shape.parts)
    path = tmp_path / "store.json"
    CoeffStore(kappa).ensure_grade(2).save(path)
    calls = Counter()

    def counting(delta):
        calls[delta] += 1
        return canonicalize(delta)

    monkeypatch.setattr(coeffs.compositions, "canonicalize", counting)
    for store in (CoeffStore(kappa), CoeffStore.load(path, kappa)):
        calls.clear()
        store.ensure_grade(4)
        assert calls and max(calls.values()) == 1, calls.most_common(3)
