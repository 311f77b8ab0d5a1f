from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.rings import DUALS, QQ, DualNumber, to_fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
duals = st.builds(DualNumber, rationals, rationals)

# Coefficients as the kernels meet them: zeros, small values and
# 40-digit heights, with runs of zeros between single entries.
ZERO = st.just(Fraction(0))
HUGE = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
RATIONAL = st.one_of(ZERO, rationals, HUGE)
ELEMENTS = {QQ: RATIONAL, DUALS: st.builds(DualNumber, RATIONAL, RATIONAL)}


def ring_values(ring):
    pieces = st.one_of(
        ELEMENTS[ring].map(lambda c: [c]),
        st.integers(2, 4).map(lambda k: [ring.zero] * k),
    )
    return st.lists(pieces, min_size=1, max_size=6).map(lambda ps: sum(ps, []))


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


def test_dual_add_and_neg():
    a = DualNumber(1, 2)
    b = DualNumber(Fraction(1, 2), -1)
    assert a + b == DualNumber(Fraction(3, 2), 1)
    assert a + -b == DualNumber(Fraction(1, 2), 3)
    assert -a == DualNumber(-1, -2)
    assert 1 + a == DualNumber(2, 2)


def test_dual_inverse():
    d = DualNumber(2, 3)
    assert d.inverse() == DualNumber(Fraction(1, 2), Fraction(-3, 4))
    assert d * d.inverse() == 1


def test_dual_with_zero_value_is_not_invertible():
    with pytest.raises(ZeroDivisionError):
        DualNumber(0, 5).inverse()


def test_dual_compares_with_plain_rationals():
    assert DualNumber(3, 0) == 3
    assert DualNumber(3, 1) != 3
    assert DualNumber(Fraction(1, 2), 0) == Fraction(1, 2)


def test_dual_hash_agrees_with_equality():
    assert hash(DualNumber(3, 0)) == hash(DualNumber(Fraction(3), Fraction(0)))


def test_dual_refuses_a_string_under_every_operator():
    d = DualNumber(1, 2)
    for operate in (lambda: d + "x", lambda: "x" + d, lambda: d * "x", lambda: "x" * d, lambda: d / "x"):
        with pytest.raises(TypeError):
            operate()


def test_dual_str_shows_only_the_parts_it_has():
    assert str(DualNumber(Fraction(3, 2))) == "3/2"
    assert str(DualNumber(0, Fraction(-1, 2))) == "-1/2*eps"
    assert str(DualNumber(1, 2)) == "1 + 2*eps"


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


# -------------------------------------------- split, cancel and join


def _denominators(ring, values):
    if ring is DUALS:
        return [q for v in values for q in (v.value.denominator, v.infinitesimal.denominator)]
    return [v.denominator for v in values]


@pytest.mark.parametrize("ring", [QQ, DUALS])
@given(data=st.data(), content=st.integers(1, 10**12))
@settings(max_examples=60, deadline=None)
def test_split_cancel_join_contract(ring, data, content):
    values = tuple(data.draw(ring_values(ring)))
    numerators, denominator = ring.split(values)
    # the denominator is the lcm over every part of every value
    assert denominator == lcm(*_denominators(ring, values))
    assert ring.join(numerators, denominator) == values
    # cancel keeps the values and divides the denominator it was given
    inflated = [v * content for v in numerators]
    cancelled, reduced = ring.cancel(inflated, denominator * content)
    assert (denominator * content) % reduced == 0
    assert ring.join(cancelled, reduced) == values


@given(st.lists(ELEMENTS[DUALS], min_size=2, max_size=2), st.integers(-(10**20), 10**20))
@settings(max_examples=60, deadline=None)
def test_dual_numerators_follow_dual_arithmetic(pair, k):
    # numerators from one split share the denominator d, and an int k
    # stands for the numerator of k / d
    a, b = pair
    (x, y), d = DUALS.split(pair)
    shift = Fraction(k, d)
    assert bool(x) == bool(a)
    assert DUALS.join([x + y, x + -y, -x], d) == (a + b, a + -b, -a)
    assert DUALS.join([x * y], d * d) == (a * b,)
    assert DUALS.join([x + k, k + x, x + -k, k + -x], d) == (a + shift, a + shift, a + -shift, shift + -a)
    assert DUALS.join([x * k, k * x], d) == (a * k, a * k)


def test_a_numerator_whose_eps_part_cancels_is_an_int():
    # d = 6: x = 3 + 18 eps and y = 2 - 18 eps, with int parts
    (x, y), d = DUALS.split([DualNumber(Fraction(1, 2), 3), DualNumber(Fraction(1, 3), -3)])
    assert d == 6
    assert type(x) is DualNumber and (x.value, x.infinitesimal) == (3, 18)
    assert type(x.value) is int and type(x.infinitesimal) is int
    (e,), _ = DUALS.split([DualNumber(0, 1)])
    for result, expected in [(x + y, 5), (y + x, 5), (x + -x, 0), (e * e, 0), (x * 0, 0), (0 * x, 0)]:
        assert type(result) is int and result == expected
    product = x * y
    assert type(product) is DualNumber and type(product.value) is int and type(product.infinitesimal) is int
    # a ring element keeps its Fraction parts, also where its eps part cancels
    total = DualNumber(1, 1) + DualNumber(1, -1)
    assert type(total) is DualNumber and type(total.infinitesimal) is Fraction


def test_inverse_and_division_never_give_a_float_part():
    (x,), d = DUALS.split([DualNumber(2, 3)])
    assert d == 1 and type(x.value) is int
    element = DualNumber(2, 3)
    for result in (x.inverse(), x / 3, x / x, 1 * x / element, element.inverse(), element / 4, element / x):
        assert type(result) is DualNumber
        assert type(result.value) is Fraction and type(result.infinitesimal) is Fraction
    assert x.inverse() == DualNumber(Fraction(1, 2), Fraction(-3, 4))
    assert x / x == 1
