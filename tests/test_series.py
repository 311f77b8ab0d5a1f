from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import series
from hilbfock.rings import DUALS, DualNumber, _DualNumerator
from hilbfock.series import (
    InsufficientOrderError,
    InternalCheckError,
    NotInvertibleError,
    Series1,
    Series2,
    SeriesError,
    compose,
    compositional_inverse,
    differentiate,
    divide_by_x_minus_y,
    negate_argument,
    reciprocal,
    series_log,
    shift_up,
)

from exp_oracle import series_exp
from fraction_kernels import (
    add,
    identity,
    in_x,
    in_y,
    joined_powers,
    monomial,
    negate,
    one,
    power_table,
    scale,
    scale_argument,
    series2_from_dict,
    shift_down,
    zero,
)
from lagrange_good import divide_by_x, divide_by_y, lagrange_good_extract


def s1(*coefficients, order=None):
    values = tuple(Fr(c) for c in coefficients)
    return Series1(values, len(values) - 1 if order is None else order)


GEOMETRIC = s1(1, 1, 1, 1, 1)  # 1/(1-x) through degree 4


# ---------------------------------------------------------------- Series1


def test_from_coefficients_infers_and_pads():
    s = s1(1, 2)
    assert s.order == 1
    padded = Series1((Fr(1),), 3)
    assert padded.coefficients == (Fr(1), Fr(0), Fr(0), Fr(0))
    assert Series1((Fr(1), Fr(2), Fr(3)), 1).coefficients == (Fr(1), Fr(2))


def test_coefficient_beyond_order_is_an_error():
    s = s1(1, 2, 3)
    assert s.coefficient(2) == 3
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        s.coefficient(3)


def test_truncate_cannot_extend():
    s = s1(1, 2, 3)
    assert s.truncate(1).coefficients == (Fr(1), Fr(2))
    with pytest.raises(SeriesError, match="cannot extend"):
        s.truncate(5)


def test_binary_operations_take_min_order():
    long = s1(1, 1, 1, 1, 1, 1)
    short = s1(1, 2, 3)
    assert add(long, short).order == 2
    assert (long * short).order == 2


def test_polynomial_identities():
    one_plus = s1(1, 1, 0, 0)
    one_minus = s1(1, -1, 0, 0)
    assert one_plus * one_minus == s1(1, 0, -1, 0)
    cube = one_plus * one_plus * one_plus
    assert cube.coefficient(2) == 3  # [x^2](1+x)^3


def test_even_series_coefficient_extraction():
    # [u^2] (1-u^2)(1-4u^2) = -5, and any odd coefficient of an even series is 0
    product = s1(1, 0, -1) * s1(1, 0, -4)
    assert product.coefficient(2) == -5
    assert product.coefficient(1) == 0


def test_scalar_arithmetic():
    s = s1(1, 2, 3)
    assert add(s, 1).coefficients == (Fr(2), Fr(2), Fr(3))
    assert add(negate(s), 1).coefficients == (Fr(0), Fr(-2), Fr(-3))
    assert scale(s, Fr(1, 2)).coefficients == (Fr(1, 2), Fr(1), Fr(3, 2))
    assert scale(s, 2) == add(s, s)


def test_reciprocal_geometric():
    assert reciprocal(s1(1, -1, 0, 0, 0)) == GEOMETRIC


def test_reciprocal_requires_unit():
    with pytest.raises(NotInvertibleError, match="constant term is not a unit"):
        reciprocal(s1(0, 1, 2))


# ------------------------------------------------------------- exp / log


def test_exp_of_zero():
    assert series_exp(zero(Series1, 4)) == one(4)


def test_exp_of_x_order_three():
    e = series_exp(monomial(Fr(1), 1, 3))
    assert e == s1(1, 1, Fr(1, 2), Fr(1, 6))


def test_exp_rejects_nonzero_constant():
    with pytest.raises(SeriesError, match="exp requires zero constant term"):
        series_exp(s1(1, 1))


def test_log_of_one():
    assert series_log(one(4)) == zero(Series1, 4)


def test_log_of_one_plus_x():
    lg = series_log(s1(1, 1, 0, 0, 0))
    assert lg == s1(0, 1, Fr(-1, 2), Fr(1, 3), Fr(-1, 4))


def test_log_of_geometric_in_x_squared():
    # log(1/(1-x^2)) = x^2 + x^4/2 + ...
    inner = reciprocal(s1(1, 0, -1, 0, 0))
    assert series_log(inner) == s1(0, 0, 1, 0, Fr(1, 2))


def test_log_rejects_wrong_constant():
    with pytest.raises(SeriesError, match="log requires constant term 1"):
        series_log(s1(2, 1))


def test_exp_log_round_trip_named_case():
    s = s1(0, 1, 3, 0, 0, 0, 0)  # x + 3x^2 at order 6
    assert series_log(series_exp(s)) == s


coefficient_lists = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=1, max_size=6
)


def _log_by_power_series(series):
    """log f as the sum of (-1)^(k+1) (f - 1)^k / k: the definition the recurrence replaces."""
    ring = series.ring
    u = add(series, -ring.one)
    acc, power = zero(Series1, series.order, ring), u
    for k in range(1, series.order + 1):
        acc = add(acc, scale(power, ring.coerce((-1) ** (k + 1)) / ring.coerce(k)))
        power = power * u
    return acc


@given(coefficient_lists)
def test_log_recurrence_matches_power_series(tail):
    u = Series1((Fr(1), *tail), len(tail))
    assert series_log(u) == _log_by_power_series(u)


def test_log_recurrence_matches_power_series_over_duals():
    eps = DualNumber(0, 1)
    u = Series1((DUALS.one, Fr(1, 2) + eps, -3 * eps, 0, 0, Fr(-2, 3)), 7, DUALS)
    assert series_log(u) == _log_by_power_series(u)


@given(coefficient_lists)
def test_exp_log_round_trips(tail):
    s = Series1((Fr(0), *tail), len(tail))
    assert series_log(series_exp(s)) == s
    u = Series1((Fr(1), *tail), len(tail))
    assert series_exp(series_log(u)) == u


def test_exp_preserves_even_parity():
    even = s1(0, 0, 2, 0, Fr(1, 3), 0, -1)
    result = series_exp(even)
    assert all(result.coefficients[k] == 0 for k in range(1, 7, 2))


# --------------------------------------------------- compose and inverse


# ``compose`` takes a two-variable inner series; ``in_x`` writes a
# one-variable h as h(x), and f(h(x)) is ``in_x`` of f(h).


def test_compose_with_identity():
    s = s1(5, 1, 2, 3)
    assert compose(s, in_x(identity(3))) == in_x(s)


def test_compose_geometric_with_x_squared():
    outer = GEOMETRIC.truncate(4)
    inner = monomial(Fr(1), 2, 4)
    assert compose(outer, in_x(inner)) == in_x(s1(1, 0, 1, 0, 1))


def test_compose_linear_outer():
    outer = s1(1, 1, 0, 0)
    inner = s1(0, 1, 0, -1)
    assert compose(outer, in_y(inner)) == in_y(s1(1, 1, 0, -1))


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(SeriesError, match="zero constant term"):
        compose(GEOMETRIC, in_x(s1(1, 1, 0, 0, 0)))


def test_inverse_of_identity():
    g, powers = compositional_inverse(one(4))
    assert g == identity(5)
    assert powers == ([[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0], [1, 0], [1]], 1)
    assert joined_powers(powers, g.ring) == tuple(monomial(1, a, 5) for a in range(6))


def test_inverse_of_x_over_one_minus_x_squared():
    # phi to degree 6 gives the inverse to order 7
    inverse, _ = compositional_inverse(s1(1, 0, -1, 0, 0, 0, 0))
    assert inverse == s1(0, 1, 0, -1, 0, 2, 0, -5)


def test_inverse_over_dual_numbers():
    # x / phi = x - 2 eps x^(n+1) for phi = 1 + 2 eps x^n, and its
    # inverse is x + 2 eps x^(n+1); here n = 2
    eps = DualNumber(0, 1)
    phi = add(one(6, DUALS), monomial(2 * eps, 2, 6, DUALS))
    expected = add(identity(7, DUALS), monomial(2 * eps, 3, 7, DUALS))
    assert compositional_inverse(phi)[0] == expected


def test_the_inverse_round_trip_sees_a_leftover_eps_part(monkeypatch):
    # eps added to the numerator of [x^3] g^3, which Lagrange-Buermann
    # compares with [u^0] phi^3: its real part still matches, its eps
    # part not.  [u^3] phi^3 takes eps too, but phi^3 is read below u^3.
    chain = series.power_chain

    def perturbed(ring, coefficients, count):
        for a, (P, D) in enumerate(chain(ring, coefficients, count), 1):
            yield ([*P[:3], P[3] + _DualNumerator(0, 1), *P[4:]] if a == 3 else P), D

    monkeypatch.setattr(series, "power_chain", perturbed)
    with pytest.raises(InternalCheckError, match="round-trip check"):
        # phi = 1 / (1 + x^2), the inverse of x + x^3
        compositional_inverse(Series1((1, 0, -1, 0, 1), 4, DUALS))


def test_inverse_requires_unit_linear_coefficient():
    # the linear coefficient of x / phi is 1 / phi_0
    with pytest.raises(NotInvertibleError, match="not invertible under composition"):
        compositional_inverse(s1(0, 1, 0))
    with pytest.raises(NotInvertibleError, match="not invertible under composition"):
        compositional_inverse(Series1((DualNumber(0, 1), 1), 1, DUALS))


@given(coefficient_lists)
@settings(max_examples=40)
def test_compositional_round_trip(tail):
    phi = Series1((Fr(1), *tail), len(tail))
    s = shift_up(reciprocal(phi), 1)
    inverse, powers = compositional_inverse(phi)
    assert joined_powers(powers, s.ring) == power_table(inverse)
    assert compose(s, in_x(inverse)) == in_x(identity(s.order))
    assert compose(inverse, in_y(s)) == in_y(identity(s.order))


def test_truncation_monotonicity():
    f = s1(1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    coarse, _ = compositional_inverse((f * negate_argument(f)).truncate(5))
    fine, _ = compositional_inverse((f * negate_argument(f)).truncate(8))
    assert fine.truncate(coarse.order) == coarse


# ------------------------------------------------------- argument helpers


def test_scale_and_negate_argument():
    s = s1(1, 2, 3)
    assert scale_argument(s, 2) == s1(1, 4, 12)
    assert negate_argument(s) == s1(1, -2, 3)
    eps = DualNumber(0, 1)
    d = Series1((DUALS.one, Fr(1, 2) + eps, -3 * eps, 0, eps), 4, DUALS)
    assert negate_argument(d) == scale_argument(d, -1)
    assert negate_argument(d).coefficients[1] == Fr(-1, 2) + -eps


@given(coefficient_lists)
def test_negate_argument_matches_scaling_by_minus_one(tail):
    s = Series1((Fr(1), *tail), len(tail))
    assert negate_argument(s) == scale_argument(s, -1)


def test_shift_up_and_down():
    s = s1(1, 2, 3)
    up = shift_up(s, 2)
    assert up.order == 4 and up.coefficients == (Fr(0), Fr(0), Fr(1), Fr(2), Fr(3))
    assert shift_down(up, 2) == s
    with pytest.raises(SeriesError):
        shift_down(s1(1, 2), 1)  # constant term nonzero, not divisible


def test_differentiate():
    s = s1(7, 1, 1, 1)
    assert differentiate(s) == s1(1, 2, 3)


# ---------------------------------------------------------------- Series2


def x_plus_y(order):
    return series2_from_dict({(1, 0): Fr(1), (0, 1): Fr(1)}, order)


def test_series2_basic_shape():
    s = series2_from_dict({(1, 0): Fr(2), (0, 2): Fr(5)}, 3)
    assert s.coefficient(1, 0) == 2
    assert s.coefficient(0, 2) == 5
    assert s.coefficient(1, 1) == 0
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        s.coefficient(2, 2)


def test_series2_multiplication():
    square = x_plus_y(4) * x_plus_y(4)
    assert square.homogeneous(2) == (Fr(1), Fr(2), Fr(1))
    assert square.homogeneous(1) == (Fr(0), Fr(0))


def test_series2_symmetry_predicate_and_swap():
    sym = x_plus_y(3) * x_plus_y(3)
    assert sym == sym.swap()
    lop = series2_from_dict({(2, 0): Fr(1)}, 3)
    assert lop != lop.swap()
    assert lop.swap() == series2_from_dict({(0, 2): Fr(1)}, 3)


def test_divide_difference_of_squares():
    numerator = series2_from_dict({(2, 0): Fr(1), (0, 2): Fr(-1)}, 3)
    assert divide_by_x_minus_y(numerator) == x_plus_y(2)


def test_divide_cubic_example():
    # (x^3 y - y^3 x) / (x - y) = xy(x + y)
    numerator = series2_from_dict({(3, 1): Fr(1), (1, 3): Fr(-1)}, 4)
    expected = series2_from_dict({(2, 1): Fr(1), (1, 2): Fr(1)}, 3)
    assert divide_by_x_minus_y(numerator) == expected


def test_divide_difference_quotient_of_odd_cubic():
    # g = x - x^3: (g(x) - g(y)) / (x - y) = 1 - x^2 - xy - y^2
    g = s1(0, 1, 0, -1)
    numerator = add(in_x(g), negate(in_y(g)))
    expected = series2_from_dict(
        {(0, 0): Fr(1), (2, 0): Fr(-1), (1, 1): Fr(-1), (0, 2): Fr(-1)}, 2
    )
    assert divide_by_x_minus_y(numerator) == expected


def test_divide_rejects_non_multiples():
    with pytest.raises(SeriesError, match=r"not divisible by \(x - y\)"):
        divide_by_x_minus_y(series2_from_dict({(2, 0): Fr(1)}, 2))


def test_divide_by_single_variables():
    s = series2_from_dict({(1, 0): Fr(3), (2, 1): Fr(5)}, 3)
    assert divide_by_x(s) == series2_from_dict({(0, 0): Fr(3), (1, 1): Fr(5)}, 2)
    t = series2_from_dict({(0, 1): Fr(3)}, 2)
    assert divide_by_y(t) == series2_from_dict({(0, 0): Fr(3)}, 1)
    with pytest.raises(SeriesError):
        divide_by_x(t)


def test_compose_series1_outer_with_series2_inner():
    total = compose(GEOMETRIC.truncate(3), x_plus_y(3))
    assert total.coefficient(0, 0) == 1
    assert total.homogeneous(1) == (Fr(1), Fr(1))
    assert total.homogeneous(2) == (Fr(1), Fr(2), Fr(1))
    assert total.homogeneous(3) == (Fr(1), Fr(3), Fr(3), Fr(1))


def test_series2_min_order_rule():
    a = x_plus_y(5)
    b = x_plus_y(2)
    assert (a * b).order == 2
    assert add(a, b).order == 2


# ----------------------------------------------------------- Lagrange-Good


# Note on orders: extracting c_k goes through the derivative of f, which
# knows one degree less than f itself, so the inputs carry one order of
# slack beyond the largest extracted index.


def test_lagrange_univariate_monomial_base():
    g = s1(0, 2, 3, 4, 5, 6)
    f = identity(5)
    for k in range(1, 5):
        assert lagrange_good_extract(g, [f], k) == g.coefficient(k)


def test_lagrange_univariate_known_expansion():
    # z = sum c_k (z - z^2)^k with c_1 = 1, c_2 = 1
    f = s1(0, 1, -1, 0, 0, 0, 0, 0, 0)
    g = identity(8)
    assert lagrange_good_extract(g, [f], 1) == 1
    assert lagrange_good_extract(g, [f], 2) == 1


def test_lagrange_bivariate_product_base():
    z1 = series2_from_dict({(1, 0): Fr(1)}, 5)
    z2 = series2_from_dict({(0, 1): Fr(1)}, 5)
    g = series2_from_dict({(1, 1): Fr(1)}, 5)
    assert lagrange_good_extract(g, [z1, z2], (1, 1)) == 1
    for pair in ((1, 0), (0, 1), (2, 1), (2, 2)):
        assert lagrange_good_extract(g, [z1, z2], pair) == 0


def test_lagrange_rejects_three_variables():
    f = identity(3)
    with pytest.raises(SeriesError, match="at most two variables"):
        lagrange_good_extract(f, [f, f, f], (1, 1, 1))


def _naive_univariate_expansion(g, f, max_k):
    """Forward substitution: c_k = [z^k](g - sum_{j<k} c_j f^j) / f1^k."""
    coefficients = {}
    residual = g
    powers = one(g.order)
    f1 = f.coefficient(1)
    for k in range(1, max_k + 1):
        powers = powers * f
        c = residual.coefficient(k) / f1**k
        coefficients[k] = c
        residual = add(residual, scale(powers, -c))
    return coefficients


def test_lagrange_against_naive_univariate():
    f = s1(0, 1, 2, Fr(-1, 2), 0, 1, 0, 0, 3, -2)
    g = s1(0, 3, 0, 1, Fr(2, 7), 0, -4, 1, 1, 0)
    naive = _naive_univariate_expansion(g, f, 8)
    for k in range(1, 9):
        assert lagrange_good_extract(g, [f], k) == naive[k]


def _naive_bivariate_expansion(g, f1, f2, max_total):
    """Forward substitution over ascending total degree.

    Works because the total-degree-(k1+k2) part of f1^k1 f2^k2 is
    exactly z1^k1 z2^k2 when each f_i is z_i times a unit with
    constant term 1.
    """
    order = g.order
    coefficients = {}
    residual = g
    for total in range(1, max_total + 1):
        for k1 in range(total + 1):
            k2 = total - k1
            c = residual.coefficient(k1, k2)
            coefficients[(k1, k2)] = c
            if c != 0:
                term = Series2(((c,),), order)
                for _ in range(k1):
                    term = term * f1
                for _ in range(k2):
                    term = term * f2
                residual = add(residual, negate(term))
    return coefficients


def test_lagrange_against_naive_bivariate():
    order = 6
    f1 = series2_from_dict({(1, 0): Fr(1), (1, 1): Fr(1)}, order)  # z1 (1 + z2)
    f2 = series2_from_dict({(0, 1): Fr(1), (2, 1): Fr(-1)}, order)  # z2 (1 - z1^2)
    g = series2_from_dict(
        {(1, 0): Fr(2), (0, 1): Fr(-1), (1, 1): Fr(1), (2, 2): Fr(3), (0, 4): Fr(1, 2)},
        order,
    )
    naive = _naive_bivariate_expansion(g, f1, f2, 5)
    for (k1, k2), expected in naive.items():
        assert lagrange_good_extract(g, [f1, f2], (k1, k2)) == expected


def test_lagrange_reassembly():
    # the extracted coefficients really do rebuild g
    f = s1(0, 1, 1, 1, 1, 1, 1, 1)
    g = s1(0, 1, 0, -2, 0, 5, 0, 0)
    rebuilt = zero(Series1, 6)
    power = one(6)
    for k in range(1, 7):
        power = power * f.truncate(6)
        rebuilt = add(rebuilt, scale(power, lagrange_good_extract(g, [f], k)))
    assert rebuilt == g.truncate(6)


# ---------------------------------------------------------------- error paths


ILL_POSED = {
    "rings": (lambda: s1(1, 2) * Series1((DUALS.one,), 1, DUALS), SeriesError, "different coefficient rings"),
    "coefficient-1": (lambda: s1(1, 2).coefficient(-1), SeriesError, "exponents must be non-negative"),
    "series2-order": (lambda: Series2((), -1), SeriesError, "truncation order must be non-negative"),
    "coefficient-1,0": (lambda: x_plus_y(2).coefficient(-1, 0), SeriesError, "exponents must be non-negative"),
    "coefficient-past": (lambda: x_plus_y(2).coefficient(2, 1), InsufficientOrderError, "insufficient precision"),
    "differentiate": (lambda: differentiate(s1(7)), InsufficientOrderError, "cannot differentiate"),
    "shift_up-1": (lambda: shift_up(s1(1, 2), -1), SeriesError, "shift amount must be non-negative"),
    "shift_down-1": (lambda: shift_down(s1(0, 2), -1), SeriesError, "shift amount must be non-negative"),
    "shift_down-past": (lambda: shift_down(s1(0, 2), 2), InsufficientOrderError, "shift exceeds"),
}


@pytest.mark.parametrize("call, error, message", ILL_POSED.values(), ids=ILL_POSED)
def test_an_ill_posed_series_operation_raises(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert raised.type is error
