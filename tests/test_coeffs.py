import random
from fractions import Fraction

import numpy as np
import pytest

from jacktorus import perms
from jacktorus.coeffs import CoeffStore
from jacktorus.compositions import enumerate_Z, sort_desc, split_pi_nu, triangular_lt
from jacktorus.errors import NotYetComputable, PoleExcluded, StoreCorrupt
from jacktorus.scalars import make_kappa, unchecked_kappa
from jacktorus.tableaux import (
    Partition,
    identity_matrix,
    jucys_murphy,
    rep_matrix,
    transposition_matrix,
)
from jacktorus.torusform import nsjp_norm


def is_zero(mat) -> bool:
    return bool(np.all(mat == Fraction(0)))


def test_grade_zero_is_identity(store21):
    assert np.all(store21.coeff((0, 0, 0)) == identity_matrix(2))


def test_off_lattice_is_zero(store21):
    assert is_zero(store21.coeff((1, 0, 0)))
    assert is_zero(store21.coeff((2, -1, 0)))


def test_grade_one_closed_form(store21, shape21, kappa21):
    # (I + kappa JM_1) cA_{e1-e2} = -kappa sigma(1,2)
    kap = kappa21.value
    lhs = (identity_matrix(2) + jucys_murphy(shape21, 1) * kap) @ store21.coeff((1, -1, 0))
    rhs = transposition_matrix(shape21, 1, 2) * (-kap)
    assert np.all(lhs == rhs)


def test_grade_one_closed_form_all_columns(store31, shape31, kappa31):
    kap = kappa31.value
    left = identity_matrix(3) + jucys_murphy(shape31, 1) * kap
    for j in (2, 3, 4):
        gamma = tuple(1 if k == 0 else (-1 if k == j - 1 else 0) for k in range(4))
        lhs = left @ store31.coeff(gamma)
        assert np.all(lhs == transposition_matrix(shape31, 1, j) * (-kap))


def test_displayed_grade_two_relations(store31, shape31, kappa31):
    """The three worked grade-2 relations, in the carried sigma form."""
    kap = kappa31.value
    n = 4
    left2 = identity_matrix(3)
    for i in range(3, n + 1):
        left2 = left2 + transposition_matrix(shape31, 1, i) * kap

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
        rhs = (A(-1, 1, 0, 0) + A(*e2_minus_ej)) @ sig(1, j) * (-kap)
        assert np.all(lhs == rhs)

    # (I + k sum sig(1,i)) A_{e1+e2-e_j-e_{j+1}} = -k (A_{e2-e_j} sig(1,j+1) + A_{e2-e_{j+1}} sig(1,j))
    j = 3
    lhs = left2 @ A(1, 1, -1, -1)
    rhs = (A(0, 1, -1, 0) @ sig(1, 4) + A(0, 1, 0, -1) @ sig(1, 3)) * (-kap)
    assert np.all(lhs == rhs)

    # (2I + k JM_1) A_{2e1-2eN} = -k { sum_{l=2}^{N-1} sig(1,l) A_{e1+el-2eN}
    #                                  + sig(1,N) A_{e1-eN} + (A_{e1-eN} + I) sig(1,N) }
    lhs = (identity_matrix(3) * 2 + jucys_murphy(shape31, 1) * kap) @ A(2, 0, 0, -2)
    inner = sig(1, 2) @ A(1, 1, 0, -2) + sig(1, 3) @ A(1, 0, 1, -2)
    inner = inner + sig(1, 4) @ A(1, 0, 0, -1)
    inner = inner + (A(1, 0, 0, -1) + identity_matrix(3)) @ sig(1, 4)
    assert np.all(lhs == inner * (-kap))


def test_adjoint_relation_on_pairing(store21):
    # carried form of A_{-g} = A_g^T: the pairing matrices satisfy G_{-g} = G_g^T
    for n in range(1, 4):
        for gamma in enumerate_Z(3, n):
            neg = tuple(-g for g in gamma)
            assert np.all(store21.pairing_matrix(neg) == store21.pairing_matrix(gamma).T)


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
        assert np.all(lhs == mat @ store21.coeff(gamma) @ mat_inv)


class ShuffledStore(CoeffStore):
    """Solves each negative-part class in a random triangular-respecting order."""

    def __init__(self, shape, kappa, seed):
        super().__init__(shape, kappa)
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
    other = ShuffledStore(shape21, kappa21, seed)
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


def test_pairing_against_independent_jack_expansion(shape21, kappa21, store21, graph21):
    """Dual-route check: expand monomials in the Jack basis, pair with the
    closed-form norms, and compare against the recurrence-built pairing."""
    for d in (1, 2):
        nodes = graph21.build_degree(d)
        exps = sorted({a for node in nodes for a in node.poly.terms})

        def stack(poly):
            col = [Fraction(0)] * (len(exps) * 2)
            for a, v in poly.terms.items():
                for k in range(2):
                    col[exps.index(a) * 2 + k] = v[k]
            return col

        columns = [stack(node.poly) for node in nodes]
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
                        assert got[ti, tj] == expect, (alpha, beta, ti, tj)


def test_pole_raised_inside_recurrence():
    shape = Partition((3, 1))
    bad = unchecked_kappa(-1, 2, (3, 1))
    store = CoeffStore(shape, bad)
    with pytest.raises(PoleExcluded) as err:
        store.solve_grade(1)
    # gamma_1 + kappa c = 0 at gamma_1 = 1, c = 2
    assert err.value.witness_m == 1
    assert err.value.witness_c == 2


def test_grade_cap(shape21, kappa21):
    store = CoeffStore(shape21, kappa21, max_grade=1)
    store.coeff((1, -1, 0))
    with pytest.raises(NotYetComputable):
        store.coeff((2, -2, 0))


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


def test_persistence_round_trip(tmp_path, shape21, kappa21):
    store = CoeffStore(shape21, kappa21).ensure_grade(2)
    path = tmp_path / "store.json"
    store.save(path)
    bytes_a = path.read_bytes()
    loaded = CoeffStore.load(path)
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


def test_load_rejects_wrong_kappa(tmp_path, shape21, kappa21):
    store = CoeffStore(shape21, kappa21).ensure_grade(1)
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
