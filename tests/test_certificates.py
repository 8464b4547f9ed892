"""The random-vector certificates of ``torusform.gram`` and ``NsjpGraph.check_eigen`` against the full products.

Each case perturbs one entry of C_d, P_d, the closed-form norms, U_i or xi
(or none) on a shape with N <= 5, to degree 2, and requires the certificate's
verdict to be the full product's, taken by ``support.int_matmul``: the same
failing columns, the same full entries in them, the same first failing node
and i.  ``tests/mutants.py`` breaks the certificates in three ways and
requires these tests to see each break.
"""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus.coeffs import CoeffStore
from jacktorus.laurent import cherednik_matrix
from jacktorus.scalars import default_kappa
from jacktorus.tableaux import Partition, Scaled, failing_columns
from jacktorus.torusform import FormContext, _gram_block, _pairing_block, nsjp_norm
from jacktorus.ybgraph import NsjpGraph, _eigen_failure, exponents
from support import int_matmul, valid_shapes

SHAPES_TO_5 = [s.parts for n in range(3, 6) for s in valid_shapes(n)]
IDS = [",".join(map(str, p)) for p in SHAPES_TO_5]
SEEDS = st.sampled_from([0, 1, 7, 12345, 2**63 + 5])
DELTAS = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))


@lru_cache(maxsize=None)
def _session(parts):
    shape = Partition(parts)
    kappa = default_kappa(parts)
    return NsjpGraph(shape, kappa), FormContext(CoeffStore(shape, kappa))


@lru_cache(maxsize=None)
def _degree(parts, d):
    """C_d, its denominators, P_d and its scale, the norms, the U_i and the xi of one degree, all read-only."""
    graph, ctx = _session(parts)
    nodes, cmat, dens = graph.columns(d)
    pmat, lp = _pairing_block(exponents(graph.shape.N, d), ctx)
    norms = [nsjp_norm(node.alpha, node.tableau, graph.kappa) for node in nodes]
    us = [cherednik_matrix(graph.shape, graph.kappa, exponents(graph.shape.N, d), i) for i in range(1, graph.shape.N + 1)]
    xi = Scaled.of([[node.spectral[i] for node in nodes] for i in range(graph.shape.N)])
    return cmat, dens, pmat, lp, norms, us, xi


def _bumped(mat, data, delta, label):
    out = mat.copy()
    index = tuple(data.draw(st.integers(0, n - 1), label=f"{label} {axis}") for axis, n in zip("rc", mat.shape))
    out[index] += delta
    return out


def _gram_oracle(cmat, pmat, lp, dens, norms):
    """The failing columns of C^T P C = diag(w) and their entries, from the full product."""
    prod = int_matmul(cmat.T, int_matmul(pmat, cmat))
    n = len(dens)
    w = [norm * (lp * den * den) for norm, den in zip(norms, dens)]
    bad = [j for j in range(n) if any(prod[i, j] != (w[j] if i == j else 0) for i in range(n))]
    return {j: {i: Fraction(prod[i, j], lp * dens[i] * dens[j]) for i in range(n) if prod[i, j]} for j in bad}


@pytest.mark.parametrize("parts", SHAPES_TO_5, ids=IDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=SEEDS, delta=DELTAS)
def test_the_gram_certificate_fails_exactly_the_columns_the_full_product_fails(parts, data, seed, delta):
    d = data.draw(st.integers(0, 2), label="degree")
    cmat, dens, pmat, lp, norms, _, _ = _degree(parts, d)
    target = data.draw(st.sampled_from(["C", "P", "norm"]), label="target")
    if target == "C":
        cmat = _bumped(cmat, data, delta, "C")
    elif target == "P":
        pmat = _bumped(pmat, data, delta, "P")
    else:
        norms = list(norms)
        norms[data.draw(st.integers(0, len(norms) - 1), label="k")] += Fraction(delta, 7)
    blk = _gram_block(cmat, pmat, lp, dens, norms, random.Random(seed))
    assert blk.norms == norms
    assert blk.computed == _gram_oracle(cmat, pmat, lp, dens, norms)


def _eigen_oracle(us, cmat, xi):
    """The first column and its smallest i at which U_i C != C diag(xi_i), from the full products."""
    fails = [np.any(int_matmul(u.num, cmat) * xi.den != cmat * (v * u.den), axis=0) for u, v in zip(us, xi.num)]
    bad = np.argwhere(np.array(fails).T)  # (column, i - 1), by column, then by i
    return (int(bad[0][0]), int(bad[0][1]) + 1) if len(bad) else None


@pytest.mark.parametrize("parts", SHAPES_TO_5, ids=IDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=SEEDS, delta=DELTAS)
def test_the_eigen_certificate_names_the_node_the_full_product_names(parts, data, seed, delta):
    d = data.draw(st.integers(0, 2), label="degree")
    cmat, _, _, _, _, us, xi = _degree(parts, d)
    target = data.draw(st.sampled_from(["C", "U", "xi"]), label="target")
    if target == "C":
        cmat = _bumped(cmat, data, delta, "C")
    elif target == "U":
        i = data.draw(st.integers(0, len(us) - 1), label="i - 1")
        us = list(us)
        us[i] = Scaled(_bumped(us[i].num, data, delta, "U"), us[i].den)
    else:
        xi = Scaled(_bumped(xi.num, data, delta, "xi"), xi.den)
    assert _eigen_failure(us, cmat, xi, random.Random(seed)) == _eigen_oracle(us, cmat, xi)


@settings(max_examples=100, deadline=None)
@given(
    diff=st.lists(st.sampled_from([0, 0, 0, 1, -1, 2**70]), min_size=1, max_size=40),
    seed=SEEDS,
)
def test_failing_columns_are_the_nonzero_columns_of_the_difference(diff, seed):
    """lhs is a random integer matrix A and rhs is A plus one row of differences: exactly its nonzero columns fail."""
    rng = random.Random(seed)
    a = np.array([[rng.randrange(-9, 10) for _ in diff] for _ in range(3)], dtype=object)
    b = a.copy()
    b[1] += np.array(diff, dtype=object)
    assert failing_columns(lambda x: a @ x, lambda x: b @ x, len(diff), rng) == [j for j, v in enumerate(diff) if v]


def test_no_columns_draw_no_vector():
    rng = random.Random(3)
    state = rng.getstate()
    assert failing_columns(None, None, 0, rng) == []
    assert rng.getstate() == state


@pytest.mark.parametrize("parts, degree", [((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 2)])
def test_the_stacked_pairing_blocks_are_the_store_pairing_matrices(parts, degree):
    """Every G_{alpha-beta} that _pairing_block takes as sigma(w)^T G_can sigma(w) is the store's D cA, reduced."""
    graph, _ = _session(parts)
    ctx = FormContext(CoeffStore(graph.shape, graph.kappa))
    exps = exponents(graph.shape.N, degree)
    pmat, lp = _pairing_block(exps, ctx)
    dim = graph.shape.dim
    assert len(ctx._gcache) > len(exps)
    for gamma, mat in ctx._gcache.items():
        expect = ctx.store.pairing_matrix(gamma)
        assert mat.den == expect.den and np.array_equal(mat.num, expect.num), gamma
    for r, alpha in enumerate(exps):
        for c, beta in enumerate(exps):
            block = pmat[r * dim : (r + 1) * dim, c * dim : (c + 1) * dim]
            g = ctx.pairing(tuple(a - b for a, b in zip(alpha, beta)))
            assert np.array_equal(block * g.den, g.num * lp)
