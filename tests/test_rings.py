from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbfock.rings import DUALS, QQ, DualNumber, to_fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
duals = st.builds(DualNumber, rationals, rationals)


def test_to_fraction_accepts_exact_inputs_only():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction(Fraction(2, 4)) == Fraction(1, 2)
    # floats and strings must never coerce silently inside the math layer
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        to_fraction("2/3")


def test_dual_construction_coerces():
    d = DualNumber(2, 3)
    assert d.value == Fraction(2)
    assert d.infinitesimal == Fraction(3)
    assert DualNumber.lift(Fraction(1, 2)) == DualNumber(Fraction(1, 2), 0)


def test_dual_multiplication_rule():
    # (a + b eps)(c + d eps) = ac + (ad + bc) eps
    left = DualNumber(1, 2)
    right = DualNumber(3, 4)
    assert left * right == DualNumber(3, 10)


def test_epsilon_squares_to_zero():
    eps = DualNumber(0, 1)
    assert eps * eps == DualNumber(0, 0)
    assert eps * eps == 0


def test_dual_add_sub_neg():
    a = DualNumber(1, 2)
    b = DualNumber(Fraction(1, 2), -1)
    assert a + b == DualNumber(Fraction(3, 2), 1)
    assert a - b == DualNumber(Fraction(1, 2), 3)
    assert -a == DualNumber(-1, -2)
    assert 1 + a == DualNumber(2, 2)
    assert 1 - a == DualNumber(0, -2)


def test_dual_inverse():
    d = DualNumber(2, 3)
    assert d.inverse() == DualNumber(Fraction(1, 2), Fraction(-3, 4))
    assert d * d.inverse() == 1
    assert 1 / d == d.inverse()


def test_dual_with_zero_value_is_not_invertible():
    with pytest.raises(ZeroDivisionError):
        DualNumber(0, 5).inverse()


def test_dual_compares_with_plain_rationals():
    assert DualNumber(3, 0) == 3
    assert DualNumber(3, 1) != 3
    assert DualNumber(Fraction(1, 2), 0) == Fraction(1, 2)


def test_dual_hash_agrees_with_equality():
    assert hash(DualNumber(3, 0)) == hash(DualNumber(Fraction(3), Fraction(0)))


def test_dual_truthiness():
    assert not DualNumber(0, 0)
    assert DualNumber(0, 1)
    assert DualNumber(1, 0)


@given(duals, duals, duals)
def test_dual_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(duals)
def test_dual_inverse_round_trip(d):
    if d.value == 0:
        with pytest.raises(ZeroDivisionError):
            d.inverse()
    else:
        assert d * d.inverse() == DUALS.one


def test_ring_descriptors():
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.is_unit(Fraction(1, 7))
    assert not QQ.is_unit(Fraction(0))
    assert repr(QQ) == "QQ"
    assert DUALS.coerce(5) == DualNumber(5, 0)
    assert DUALS.is_unit(DualNumber(0, 3)) is False
    assert DUALS.zero == DualNumber(0, 0)
    assert DUALS.one == DualNumber(1, 0)
