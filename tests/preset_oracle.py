"""The analytic presets from exponential series, kept as a test oracle.

The package writes todd, l-genus and a-hat as reciprocals of series
with factorial coefficients.  The builders here take the textbook
route instead: sums, differences and scalar multiples of exp(x) and
exp(-x) (or of exp(+-x/2)), divided by x with ``shift_down``.  The
package lists chern-total's two coefficients; here it is the sum of
the series 1 and x.
"""

from __future__ import annotations

from fractions import Fraction

from hilbfock.series import Series1, reciprocal

from fraction_kernels import add, monomial, negate, one, scale, shift_down


def _exponential(rate: Fraction, order: int) -> Series1:
    """The series of exp(rate * x), built termwise to avoid a log/exp round trip."""
    coefficients = [Fraction(1)]
    for k in range(1, order + 1):
        coefficients.append(coefficients[-1] * rate / k)
    return Series1(tuple(coefficients), order)


def todd_series(order: int) -> Series1:
    # x / (1 - exp(-x)); the denominator is divisible by x exactly once.
    denominator = add(one(order + 1), negate(_exponential(Fraction(-1), order + 1)))
    return reciprocal(shift_down(denominator, 1))


def l_genus_series(order: int) -> Series1:
    # x / tanh(x) = cosh(x) / (sinh(x)/x).
    plus = _exponential(Fraction(1), order + 1)
    minus = _exponential(Fraction(-1), order + 1)
    sinh_over_x = shift_down(scale(add(plus, negate(minus)), Fraction(1, 2)), 1)
    cosh = scale(add(plus, minus), Fraction(1, 2)).truncate(order)
    return cosh * reciprocal(sinh_over_x)


def a_hat_series(order: int) -> Series1:
    # (x/2) / sinh(x/2) = (1/2) / (sinh(x/2)/x).
    half = Fraction(1, 2)
    difference = add(_exponential(half, order + 1), negate(_exponential(-half, order + 1)))
    sinh_half = scale(difference, half)
    return scale(reciprocal(shift_down(sinh_half, 1)), half)


def chern_total_series(order: int) -> Series1:
    # 1 + x
    return add(one(order), monomial(Fraction(1), 1, order))


ORACLES = {
    "todd": todd_series,
    "l-genus": l_genus_series,
    "a-hat": a_hat_series,
    "chern-total": chern_total_series,
}
