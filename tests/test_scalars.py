from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacktorus.errors import InvalidShape, PoleExcluded
from jacktorus.scalars import (
    default_kappa,
    make_kappa,
    pole_witness,
)
from support import unchecked_kappa, valid_shapes


def test_admissible_quarter():
    kap = make_kappa(1, 4, (2, 1))
    assert kap.value == Fraction(1, 4)


def test_negative_pole_branch():
    with pytest.raises(PoleExcluded) as err:
        make_kappa(-1, 2, (3, 1))
    assert err.value.witness_c == 2  # -1/2 = -m/c with c <= shape[0]-1 = 2
    assert err.value.value == Fraction(-1, 2)


def test_positive_pole_branch():
    with pytest.raises(PoleExcluded) as err:
        make_kappa(1, 1, (2, 1))
    assert err.value.witness_c == 1  # 1/1 = m/c with c <= rows-1 = 1


def test_one_row_and_one_column_shapes_rejected():
    with pytest.raises(InvalidShape):
        make_kappa(1, 4, (4,))
    with pytest.raises(InvalidShape):
        make_kappa(1, 4, (1, 1, 1))


@pytest.mark.parametrize("n", range(3, 8))
def test_default_kappa_always_valid_and_psd(n):
    for shape in valid_shapes(n):
        kap = default_kappa(shape.parts)
        assert abs(kap.value) < Fraction(1, shape.max_hook)
        assert pole_witness(kap.value, shape.parts) is None


def test_unchecked_bypasses_gate():
    kap = unchecked_kappa(-1, 2, (3, 1))
    assert kap.value == Fraction(-1, 2)


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6).filter(lambda b: b != 0),
)
def test_rational_arithmetic_round_trips(a, b):
    assert (a + b) - b == a
    assert (a * b) / b == a
