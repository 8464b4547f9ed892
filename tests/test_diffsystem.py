import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacktorus import diffsystem, perms
from jacktorus.diffsystem import (
    check_regular,
    connections,
    euler_residual,
    gamma_const,
    integrability_residual,
    integrate_loop,
    integrate_path,
    sigma_stack,
)
from jacktorus.errors import PathNearSingular, SingularPoint
from jacktorus.scalars import default_kappa
from jacktorus.tableaux import Partition, Scaled, rep_matrix, total, transposition_matrix
from support import valid_shapes

POINTS_21 = [
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(-1, 2), Fraction(5, 3), Fraction(7)),
    (Fraction(2, 7), Fraction(-3), Fraction(1, 4)),
]

# every valid shape with N <= 5, and one with N = 6
SHAPES = [shape for n in range(3, 6) for shape in valid_shapes(n)] + [Partition((3, 2, 1))]


def termwise_connection(i: int, x, shape: Partition) -> Scaled:
    """Oracle: M_i(x) summed term by term from the cached representation matrices."""
    x = tuple(Fraction(c) for c in x)
    terms = [rep_matrix(shape, perms.identity(len(x))) * (-gamma_const(shape) / x[i - 1])]
    for j in range(1, len(x) + 1):
        if j != i:
            terms.append(transposition_matrix(shape, i, j) * (1 / (x[i - 1] - x[j - 1])))
    return total(terms)


def termwise_residuals(mats: list[Scaled], x, kappa) -> tuple[Scaled, dict]:
    """Oracle: sum_i x_i M_i and kappa [M_i, M_j] of each pair i < j, one pair at a time."""
    euler = total([m * Fraction(xi) for m, xi in zip(mats, x)])
    pairs = itertools.combinations(range(1, len(mats) + 1), 2)
    comm = {
        (i, j): total([mats[i - 1] @ mats[j - 1], mats[j - 1] @ mats[i - 1] * -1]) * kappa.value
        for i, j in pairs
    }
    return euler, comm


def stacked(mats: list[Scaled]) -> Scaled:
    den = math.lcm(*(m.den for m in mats))
    return Scaled(np.stack([m.num * (den // m.den) for m in mats]), den)


def regular_points(n: int):
    coordinate = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)
    return st.lists(coordinate, min_size=n, max_size=n, unique=True).map(tuple)


def test_gamma_const_examples():
    assert gamma_const(Partition((2, 1))) == 0
    assert gamma_const(Partition((3, 3, 1))) == Fraction(1, 7)


@pytest.mark.parametrize("n", range(4, 8))
def test_gamma_const_two_formulas_agree(n):
    # gamma_const checks row form == content form internally
    for shape in valid_shapes(n):
        gamma_const(shape)


def test_gamma_const_check_holds_under_optimize():
    # library invariants raise VerificationFailed; an assert would vanish under python -O
    script = (
        "from jacktorus import diffsystem, tableaux\n"
        "from jacktorus.errors import VerificationFailed\n"
        "from jacktorus.tableaux import Partition\n"
        "real = tableaux.t_zero\n"
        "tableaux.t_zero = lambda shape: real(Partition((2, 2)))\n"
        "try:\n"
        "    diffsystem.gamma_const(Partition((2, 1, 1)))\n"
        "except VerificationFailed:\n"
        "    print('raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_singular_guards():
    with pytest.raises(SingularPoint):
        check_regular((1, 1, 2))
    with pytest.raises(SingularPoint):
        check_regular((0, 1, 2))
    shape = Partition((2, 1))
    with pytest.raises(SingularPoint):
        connections((Fraction(1), Fraction(1), Fraction(2)), shape)


def test_connection_matches_termwise(shape21):
    x = POINTS_21[0]
    m = connections(x, shape21)
    expect = total([
        transposition_matrix(shape21, 1, 2) * (Fraction(1) / (x[0] - x[1])),
        transposition_matrix(shape21, 1, 3) * (Fraction(1) / (x[0] - x[2])),
    ])
    # gamma vanishes for this shape, so no diagonal correction
    assert Scaled(m.num[0], m.den) == expect


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_connections_and_residuals_match_the_termwise_oracle(shape, data):
    x = data.draw(regular_points(shape.N))
    kappa = default_kappa(shape.parts)
    m = connections(x, shape)
    mats = [termwise_connection(i, x, shape) for i in range(1, shape.N + 1)]
    assert m.num.shape == (shape.N, shape.dim, shape.dim)
    assert all(Scaled(m.num[k], m.den) == mats[k] for k in range(shape.N))
    # on the exact connection and on one whose M_1 carries sigma(1,2) twice
    mats_off = [total([mats[0], transposition_matrix(shape, 1, 2) * (1 / (x[0] - x[1]))])] + mats[1:]
    for conn, exact in ((m, True), (stacked(mats_off), False)):
        euler, comm = termwise_residuals([Scaled(c, conn.den) for c in conn.num], x, kappa)
        got_euler = euler_residual(x, conn)
        got_comm = integrability_residual(conn, kappa)
        assert got_euler == euler
        assert len(got_comm.num) == len(comm)
        assert all(Scaled(r, got_comm.den) == comm[pair] for r, pair in zip(got_comm.num, comm))
        if exact:
            assert not got_euler.num.any() and not got_comm.num.any()
        else:
            assert got_euler.num.any()


@pytest.mark.parametrize("x", POINTS_21)
def test_euler_identity_exact(shape21, x):
    assert not euler_residual(x, connections(x, shape21)).num.any()


@pytest.mark.parametrize("x", POINTS_21)
def test_integrability_exact_21(shape21, kappa21, x):
    r = integrability_residual(connections(x, shape21), kappa21)
    assert r.num.shape == (3, 2, 2)
    assert not r.num.any()


def test_integrability_residual_sees_a_perturbed_connection(shape21, kappa21):
    # doubling the sigma(1,2) term of M_1 breaks flatness, so the check is not vacuous
    x = POINTS_21[1]
    m = connections(x, shape21)
    extra = transposition_matrix(shape21, 1, 2) * (Fraction(1) / (x[0] - x[1]))
    mats = [Scaled(c, m.den) for c in m.num]
    perturbed = stacked([total([mats[0], extra])] + mats[1:])
    assert integrability_residual(perturbed, kappa21).num[0].any()  # the pair (1, 2)


def test_a_perturbed_sigma_in_the_cached_stack_is_seen(shape31, kappa31, monkeypatch):
    # sigma(2,3) doubled in the stack: both the Euler identity and flatness fail
    x = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5))
    exact = sigma_stack(shape31)
    row = 1 + list(itertools.combinations(range(1, 5), 2)).index((2, 3))
    num = exact.num.copy()
    num[row] *= 2
    monkeypatch.setattr(diffsystem, "sigma_stack", lambda shape: Scaled(num, exact.den))
    m = connections(x, shape31)
    assert euler_residual(x, m).num.any()
    assert integrability_residual(m, kappa31).num.any()


def test_integrability_exact_31(shape31, kappa31):
    x = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5))
    m = connections(x, shape31)
    assert not integrability_residual(m, kappa31).num.any()
    assert not euler_residual(x, m).num.any()


def test_zero_length_path(shape21, kappa21):
    base = np.array([0.3, 1.7, 4.0])
    out = integrate_path(base, base, 100, shape21, kappa21)
    assert np.allclose(out, np.eye(2))


def test_closed_loop_is_flat(shape21, kappa21):
    base = np.array([0.1, 2.0, 4.2])
    sq = 0.25
    loop = [
        base,
        base + np.array([sq, 0, 0]),
        base + np.array([sq, sq, 0]),
        base + np.array([0, sq, 0]),
        base,
    ]
    out = integrate_loop(loop, 10_000, shape21, kappa21)
    assert np.max(np.abs(out - np.eye(2))) < 1e-6


def test_homogeneity_path(shape21, kappa21):
    # x -> u x stays inside one component and transports trivially
    base = np.array([0.2, 2.1, 4.3])
    out = integrate_path(base, base + 0.9, 5000, shape21, kappa21)
    assert np.max(np.abs(out - np.eye(2))) < 1e-6


def test_fourth_order_convergence(shape21, kappa21):
    # halving the step size cuts the defect of an open-segment comparison ~16x
    base = np.array([0.1, 2.0, 4.2])
    end = base + np.array([0.6, -0.3, 0.2])
    fine = integrate_path(base, end, 4000, shape21, kappa21)
    d1 = np.max(np.abs(integrate_path(base, end, 50, shape21, kappa21) - fine))
    d2 = np.max(np.abs(integrate_path(base, end, 100, shape21, kappa21) - fine))
    ratio = d1 / d2
    assert 8 < ratio < 32  # 16x within a factor-of-2 band


def test_path_clearance_guard(shape21, kappa21):
    theta = np.array([0.0, 0.01, 3.0])
    with pytest.raises(PathNearSingular):
        integrate_path(theta, theta + 0.2, 100, shape21, kappa21)
