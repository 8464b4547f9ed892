import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from jacktorus import diffsystem
from jacktorus.diffsystem import (
    check_regular,
    connection,
    euler_residual,
    gamma_const,
    integrability_residual,
    integrate_loop,
    integrate_path,
)
from jacktorus.errors import PathNearSingular, SingularPoint
from jacktorus.tableaux import Partition, total, transposition_matrix, valid_shapes

POINTS_21 = [
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(-1, 2), Fraction(5, 3), Fraction(7)),
    (Fraction(2, 7), Fraction(-3), Fraction(1, 4)),
]


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
        connection(1, (Fraction(1), Fraction(1), Fraction(2)), shape)


def test_connection_matches_termwise(shape21):
    x = POINTS_21[0]
    m1 = connection(1, x, shape21)
    expect = total([
        transposition_matrix(shape21, 1, 2) * (Fraction(1) / (x[0] - x[1])),
        transposition_matrix(shape21, 1, 3) * (Fraction(1) / (x[0] - x[2])),
    ])
    # gamma vanishes for this shape, so no diagonal correction
    assert m1 == expect


@pytest.mark.parametrize("x", POINTS_21)
def test_euler_identity_exact(shape21, x):
    assert not euler_residual(x, shape21).num.any()


@pytest.mark.parametrize("x", POINTS_21)
def test_integrability_exact_21(shape21, kappa21, x):
    for i in range(1, 4):
        for j in range(1, 4):
            r = integrability_residual(i, j, x, shape21, kappa21)
            assert not r.num.any()


def test_integrability_residual_sees_a_perturbed_connection(shape21, kappa21, monkeypatch):
    # doubling the sigma(1,2) term of M_1 breaks flatness, so the check is not vacuous
    x = POINTS_21[1]
    exact = connection

    def perturbed(i, y, shape):
        out = exact(i, y, shape)
        if i == 1:
            out = total([out, transposition_matrix(shape, 1, 2) * (Fraction(1) / (y[0] - y[1]))])
        return out

    monkeypatch.setattr(diffsystem, "connection", perturbed)
    assert integrability_residual(1, 2, x, shape21, kappa21).num.any()


def test_integrability_exact_31(shape31, kappa31):
    x = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            r = integrability_residual(i, j, x, shape31, kappa31)
            assert not r.num.any()
    assert not euler_residual(x, shape31).num.any()


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
