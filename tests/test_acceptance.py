"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything exact is asserted exactly; float checks
carry the stated tolerances.
"""

import functools
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from jacktorus import perms
from jacktorus.coeffs import CoeffStore
from jacktorus.compositions import count_Z, enumerate_Z, sort_desc, steps_count
from jacktorus.diffsystem import (
    connections,
    euler_residual,
    gamma_const,
    integrability_residual,
    integrate_loop,
)
from jacktorus.errors import PoleExcluded
from jacktorus.kernels import psd_report, sigma_identity_residual
from jacktorus.scalars import make_kappa
from jacktorus.tableaux import (
    Partition,
    Scaled,
    enumerate_rsyt,
    jucys_murphy,
    norm0_diag,
    rep_matrix,
    simple_reflection,
    t_zero,
)
from jacktorus.torusform import FormContext, nsjp_norm, pair
from jacktorus.ybgraph import NsjpGraph
from support import e_factor, phi, unchecked_kappa, valid_shapes


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def session21():
    shape = Partition((2, 1))
    kap = make_kappa(1, 4, (2, 1))
    graph = NsjpGraph(kap)
    store = CoeffStore(kap).ensure_grade(4)
    return shape, kap, graph, store


@pytest.fixture(scope="module")
def session31():
    shape = Partition((3, 1))
    kap = make_kappa(1, 4, (3, 1))
    graph = NsjpGraph(kap)
    store = CoeffStore(kap).ensure_grade(3)
    return shape, kap, graph, store


@criterion(1, "tableaux fidelity: content lists and the column-filled root")
def test_criterion_1_rsyt_fidelity():
    got31 = {t.content for t in enumerate_rsyt(Partition((3, 1)))}
    assert got31 == {(2, 1, -1, 0), (2, -1, 1, 0), (-1, 2, 1, 0)}
    got311 = {t.content for t in enumerate_rsyt(Partition((3, 1, 1)))}
    assert got311 == {
        (2, 1, -2, -1, 0),
        (2, -2, 1, -1, 0),
        (-2, 2, 1, -1, 0),
        (2, -2, -1, 1, 0),
        (-2, 2, -1, 1, 0),
        (-2, -1, 2, 1, 0),
    }
    assert t_zero(Partition((3, 3, 1))).content == (1, 2, 0, 1, -2, -1, 0)


@criterion(2, "representation suite for every shape of N <= 6")
def test_criterion_2_representation_suite():
    for n in range(4, 7):
        for shape in valid_shapes(n):
            dim = shape.dim
            ident = Scaled(np.eye(dim, dtype=object), 1)
            dmat = Scaled.of(np.diag(np.array(norm0_diag(shape), dtype=object)))
            gens = [simple_reflection(shape, i) for i in range(1, n)]
            for s in gens:
                assert s @ s == ident
                assert s.T @ dmat @ s == dmat
            for i in range(len(gens) - 1):
                assert gens[i] @ gens[i + 1] @ gens[i] == gens[i + 1] @ gens[i] @ gens[i + 1]
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert gens[i] @ gens[j] == gens[j] @ gens[i]
            basis = enumerate_rsyt(shape)
            for i in range(1, n + 1):
                jm = jucys_murphy(shape, i)
                for a in range(dim):
                    for b in range(dim):
                        assert Fraction(jm.num[a, b], jm.den) == (basis[a].content[i - 1] if a == b else 0)
            assert dim * shape.hook_product() == factorial(n)


@criterion(3, "graded index-set counts match enumeration and closed forms")
def test_criterion_3_counting():
    for N in range(2, 7):
        for n in range(0, 9):
            assert count_Z(N, n) == len(enumerate_Z(N, n))
    for n in range(1, 9):
        assert count_Z(2, n) == 2
        assert count_Z(3, n) == 6 * n
        assert count_Z(4, n) == 10 * n * n + 2
        assert 3 * count_Z(5, n) == 5 * n * (7 * n * n + 5)


@criterion(4, "eigen-verification of all Jack polynomials to degree 4")
def test_criterion_4_nsjp_eigen(session21, session31):
    for shape, kap, graph, _ in (session21, session31):
        t0 = t_zero(shape)
        # one exact identity U_i C_d = C_d diag(xi_i) per degree d and i, and distinct spectral vectors
        assert graph.check_eigen(4) == sum(len(graph.build_degree(d)) for d in range(5))
        for d in range(5):
            for node in graph.build_degree(d):
                # jumps and steps predicted from alpha and T alone
                assert node.jumps == sum(node.alpha)
                assert node.steps == steps_count(node.alpha) + node.tableau.inv - t0.inv


@criterion(5, "flagship Gram: exact diagonality with closed-form norms")
def test_criterion_5_flagship_gram(session21, session31):
    from support import norm_partition

    for (shape, kap, graph, store), degree in ((session21, 3), (session31, 2)):
        ctx = FormContext(store)
        nodes = [
            (node.alpha, node.t_index)
            for d in range(degree + 1)
            for node in graph.build_degree(d)
        ]
        polys = {key: graph.nsjp_laurent(*key) for key in nodes}
        for a_idx, key_a in enumerate(nodes):
            for key_b in nodes[a_idx:]:
                val = pair(polys[key_a], polys[key_b], ctx)
                if key_a == key_b:
                    alpha, ti = key_a
                    t = graph.basis[ti]
                    assert val == nsjp_norm(alpha, t, kap)
                    # the literal quotient form wherever it is defined; at the
                    # closed positivity boundary (shape (3,1), kappa = 1/4 = 1/h)
                    # the E-product may vanish and the cancelled product above
                    # is its finite rational-function limit
                    ee = e_factor(alpha, t, 1, kap) * e_factor(alpha, t, -1, kap)
                    if ee != 0:
                        assert val == norm_partition(sort_desc(alpha), t, kap) / ee
                else:
                    assert val == 0
        # jump isometry on partition labels
        for lam in {sort_desc(a) for a, _ in nodes}:
            for ti in range(shape.dim):
                f = graph.nsjp_laurent(lam, ti)
                g = graph.nsjp_laurent(phi(lam), ti)
                assert pair(f, f, ctx) == pair(g, g, ctx)


@criterion(6, "coefficient symmetries: adjoint and conjugation covariance to grade 4")
def test_criterion_6_coefficient_symmetries(session21):
    shape, kap, _, store = session21
    dmat = Scaled.of(np.diag(np.array(store.norms, dtype=object)))
    all_w = [
        tuple(p) for p in __import__("itertools").permutations((1, 2, 3))
    ]
    for n in range(1, 5):
        for gamma in enumerate_Z(3, n):
            neg = tuple(-g for g in gamma)
            ca = store.coeff(gamma)
            # adjoint in the carried form: cA_{-g} = D^{-1} cA_g^T D, i.e. D cA_{-g} = cA_g^T D
            lhs = store.coeff(neg)
            assert dmat @ lhs == ca.T @ dmat
            assert store.pairing_matrix(neg) == store.pairing_matrix(gamma).T
            for w in all_w:
                wg = perms.act(w, gamma)
                mat = rep_matrix(shape, w)
                mat_inv = rep_matrix(shape, perms.inverse(w))
                assert store.coeff(wg) == mat @ ca @ mat_inv


@criterion(7, "self-adjointness identity: zero residual on 50 random triples")
def test_criterion_7_selfadjoint(session21, session31):
    shape, kap, _, store = session21
    rng = random.Random(2027)

    def composition(total, parts):
        cuts = sorted(rng.randrange(0, total + 1) for _ in range(parts - 1))
        return tuple(
            [cuts[0]] + [cuts[k] - cuts[k - 1] for k in range(1, parts - 1)] + [total - cuts[-1]]
        )

    for _ in range(50):
        deg = rng.randrange(1, 4)
        alpha = composition(deg, 3)
        beta = composition(deg, 3)
        i = rng.randrange(1, 4)
        res = store.verify_selfadjoint(alpha, beta, i)
        assert not res.num.any()

    # the three displayed grade-2 relations, via the identity evaluator
    shape31, kap31, _, store31 = session31
    for alpha, beta in [
        ((1, 1, 0, 0), (0, 0, 2, 0)),
        ((1, 1, 0, 0), (0, 0, 1, 1)),
        ((2, 0, 0, 0), (0, 0, 0, 2)),
    ]:
        for i in range(1, 5):
            assert not store31.verify_selfadjoint(alpha, beta, i).num.any()


@criterion(8, "pole detection with the predicted witnesses")
def test_criterion_8_pole_detection():
    with pytest.raises(PoleExcluded) as err:
        make_kappa(-1, 2, (3, 1))
    assert (err.value.witness_m, err.value.witness_c) == (1, 2)
    with pytest.raises(PoleExcluded) as err:
        make_kappa(1, 1, (2, 1))
    assert (err.value.witness_m, err.value.witness_c) == (1, 1)
    # in-recurrence detection at the predicted (gamma_1, content) pair
    store = CoeffStore(unchecked_kappa(-1, 2, (3, 1)))
    with pytest.raises(PoleExcluded) as err:
        store.solve_grade(1)
    assert (err.value.witness_m, err.value.witness_c) == (1, 2)


@criterion(9, "kernel positivity, Hermiticity, and covariance for kappa = +-1/5")
def test_criterion_9_kernel_positivity():
    for p in (1, -1):
        store = CoeffStore(make_kappa(p, 5, (2, 1)))
        rep = psd_report(store, range(1, 9), samples=100, seed=424242)
        assert rep.worst["min_eigenvalue"] >= -1e-9, rep.worst
        assert rep.hermiticity_residual < 1e-10
        assert rep.covariance_residual < 1e-10


@criterion(10, "scalar Cesaro identity through the complete symmetric polynomial")
def test_criterion_10_cesaro_identity():
    rng = np.random.default_rng(31337)
    for N in (3, 4):
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, N)
            for n in range(0, 9):
                assert sigma_identity_residual(n, x) < 1e-10


@criterion(11, "connection: exact flatness, Euler identity, loop transport")
def test_criterion_11_differential_system():
    rng = random.Random(7321)

    def rational_regular(n):
        while True:
            vals = tuple(
                Fraction(rng.randrange(-12, 13), rng.randrange(1, 7)) for _ in range(n)
            )
            if 0 not in vals and len(set(vals)) == n:
                return vals

    for parts, kap_pair in (((2, 1), (1, 4)), ((3, 1), (1, 4))):
        shape = Partition(parts)
        kap = make_kappa(*kap_pair, parts)
        for _ in range(20):
            x = rational_regular(shape.N)
            m = connections(x, shape)
            assert not euler_residual(x, m).num.any()
            # kappa [M_i, M_j] for every pair i < j
            assert not integrability_residual(m, kap).num.any()
    for n in range(4, 8):
        for shape in valid_shapes(n):
            gamma_const(shape)  # asserts the two formulas agree
    # closed-loop transport defect at 10^4 steps
    shape = Partition((2, 1))
    kap = make_kappa(1, 4, (2, 1))
    base = np.array([0.15, 2.1, 4.25])
    sq = 0.3
    loop = [
        base,
        base + np.array([sq, 0, 0]),
        base + np.array([sq, sq, 0]),
        base + np.array([0, sq, 0]),
        base,
    ]
    defect = np.max(np.abs(integrate_loop(loop, 10_000, kap) - np.eye(2)))
    assert defect < 1e-6, defect
