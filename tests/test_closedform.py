import math
from fractions import Fraction as Fr

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hilbfock import series
from hilbfock.closedform import (
    KIND_CHERN_CHARACTER,
    KIND_TAUTOLOGICAL,
    KIND_THEOREM,
    KIND_UNIVERSAL,
    CoeffTable,
    PRESET_NAMES,
    a_k_table,
    a_kl_table,
    big_g,
    chern_character_tables,
    corollary_via_dual,
    preset_class,
    small_g,
    tangent_tables,
    taut_tables,
    to_universal,
    z_closed,
)
from hilbfock.localisation import z_series_hookform, z_series_residue
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import (
    InsufficientOrderError,
    InternalCheckError,
    Series1,
    differentiate,
    divide_by_x_minus_y,
    negate_argument,
    reciprocal,
    series_log,
)

import fraction_kernels
from fraction_kernels import add, in_x, in_y, monomial, negate, one, shift_down
from preset_oracle import ORACLES


def one_plus_x(order):
    return Series1([1, 1], order)


def coefficients(series, through):
    return tuple(series.coefficient(k) for k in range(through + 1))


# --------------------------------------------------------------- presets


def test_preset_names():
    assert PRESET_NAMES == ("trivial", "chern-total", "todd", "l-genus", "a-hat")


def test_todd_series_coefficients():
    f = preset_class("todd", 8)
    assert coefficients(f, 8) == (
        Fr(1),
        Fr(1, 2),
        Fr(1, 12),
        Fr(0),
        Fr(-1, 720),
        Fr(0),
        Fr(1, 30240),
        Fr(0),
        Fr(-1, 1209600),
    )


def test_l_genus_series_coefficients():
    f = preset_class("l-genus", 8)
    assert coefficients(f, 8) == (
        Fr(1),
        Fr(0),
        Fr(1, 3),
        Fr(0),
        Fr(-1, 45),
        Fr(0),
        Fr(2, 945),
        Fr(0),
        Fr(-1, 4725),
    )


def test_a_hat_series_coefficients():
    f = preset_class("a-hat", 8)
    assert coefficients(f, 8) == (
        Fr(1),
        Fr(0),
        Fr(-1, 24),
        Fr(0),
        Fr(7, 5760),
        Fr(0),
        Fr(-31, 967680),
        Fr(0),
        Fr(127, 154828800),
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_analytic_presets_match_the_exponential_builders(name):
    # every order a table can ask for: the cap of 104, plus one; chern-total
    # is built here as 1 + x from two series, in the package from its coefficients
    for order in range(106):
        assert preset_class(name, order) == ORACLES[name](order)


def test_trivial_and_chern_total_presets():
    assert coefficients(preset_class("trivial", 3), 3) == (1, 0, 0, 0)
    assert coefficients(preset_class("chern-total", 3), 3) == (1, 1, 0, 0)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown class preset"):
        preset_class("euler", 4)


def test_class_requires_unit_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        tangent_tables(Series1([2, 1], 3), 2)


# --------------------------------------------------------------- coefficient tables


def test_coeff_table_validation():
    with pytest.raises(ValueError, match="unknown coefficient table kind"):
        CoeffTable("mystery", 4, {})
    with pytest.raises(ValueError, match="k >= l >= 1"):
        CoeffTable(KIND_THEOREM, 4, {(1, 2): Fr(1)})
    with pytest.raises(ValueError, match="k >= l >= 1"):
        CoeffTable(KIND_THEOREM, 4, {(2, 0): Fr(1)})
    with pytest.raises(ValueError, match="exceeds max degree"):
        CoeffTable(KIND_THEOREM, 3, {(3, 1): Fr(1)})
    with pytest.raises(InternalCheckError, match="odd total degree must vanish"):
        CoeffTable(KIND_THEOREM, 4, {(2, 1): Fr(5)})


def test_a_negative_table_degree_is_refused():
    with pytest.raises(ValueError, match="max degree must be >= 0"):
        CoeffTable(KIND_THEOREM, -5, {})
    with pytest.raises(ValueError, match="max degree must be >= 0"):
        chern_character_tables(-1)
    assert CoeffTable(KIND_THEOREM, 0, {}).max_degree == 0


def test_tautological_kind_allows_odd_totals():
    table = CoeffTable(KIND_TAUTOLOGICAL, 4, {(2, 1): Fr(5)})
    assert table.value(2, 1) == 5


def test_value_lookup_is_symmetric():
    table = CoeffTable(KIND_THEOREM, 4, {(3, 1): Fr(7)})
    assert table.value(3, 1) == table.value(1, 3) == 7


# --------------------------------------------------------------- the change of variables


def test_big_g_examples():
    assert coefficients(big_g(one(7)), 7) == (0, 1, 0, 0, 0, 0, 0, 0)
    # f = 1 + x gives G = z / (1 - z^2), the odd geometric series
    assert coefficients(big_g(one_plus_x(7)), 7) == (0, 1, 0, 1, 0, 1, 0, 1)
    assert coefficients(big_g(preset_class("todd", 8)), 7) == (
        0,
        Fr(1),
        0,
        Fr(1, 12),
        0,
        Fr(1, 360),
        0,
        Fr(1, 20160),
    )


def test_big_g_requires_unit_constant_and_linear_data():
    with pytest.raises(ValueError, match="constant term 1"):
        big_g(Series1([3], 4))
    with pytest.raises(InsufficientOrderError):
        big_g(one(0))


def test_small_g_examples():
    assert coefficients(small_g(one_plus_x(7), 7), 7) == (0, 1, 0, -1, 0, 2, 0, -5)
    assert coefficients(small_g(preset_class("todd", 7), 7), 7) == (
        0,
        Fr(1),
        0,
        Fr(-1, 12),
        0,
        Fr(13, 720),
        0,
        Fr(-311, 60480),
    )


def test_small_g_over_dual_numbers():
    # f = 1 + eps x^4 inverts to g = x + 2 eps x^5 because eps squares to zero
    eps = DualNumber(Fr(0), Fr(1))
    f = add(one(5, DUALS), monomial(eps, 4, 5, DUALS))
    g = small_g(f, 5)
    assert g.coefficient(1) == 1
    assert g.coefficient(5) == DualNumber(Fr(0), Fr(2))
    assert g.coefficient(3) == 0


def test_a_k_table_for_chern_total():
    table = a_k_table(one_plus_x(5), 5)
    assert table == {1: Fr(1), 2: Fr(0), 3: Fr(-1, 3), 4: Fr(0), 5: Fr(2, 5)}


def test_a_kl_table_for_chern_total():
    table = a_kl_table(one_plus_x(7), 6)
    assert table.kind == KIND_THEOREM
    assert table.value(1, 1) == -3
    assert table.value(3, 1) == 1
    assert table.value(2, 2) == Fr(7, 2)
    assert table.value(2, 1) == 0
    assert table.value(3, 2) == 0


def test_pair_table_needs_one_extra_order():
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        a_kl_table(one_plus_x(6), 6)
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        z_closed(one_plus_x(6), 6)
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        taut_tables(one_plus_x(6), 6)
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        small_g(one_plus_x(6), 7)


@pytest.mark.parametrize(
    "build",
    [
        lambda f: small_g(f, 12),
        lambda f: z_closed(f, 12),
    ],
    ids=["small_g", "z_closed"],
)
def test_corrupted_inverse_fails_its_round_trip_check(monkeypatch, build):
    """A wrong inverse is caught by the check in compositional_inverse:
    1 added to the numerator of [u^2] F^3, which g_3 is read from (and
    to [x^2] g^3, which is zero and never read)."""
    chain = series.power_chain

    def corrupted(ring, coefficients, count):
        for a, (P, D) in enumerate(chain(ring, coefficients, count), 1):
            yield ([*P[:2], P[2] + 1, *P[3:]] if a == 3 else P), D

    monkeypatch.setattr(series, "power_chain", corrupted)
    with pytest.raises(InternalCheckError, match="round-trip check"):
        build(preset_class("todd", 13))


@pytest.mark.parametrize("build", [tangent_tables, taut_tables, z_closed, z_series_residue])
def test_the_closed_form_forms_no_series_per_power_of_g(monkeypatch, build):
    """The powers of g, and the residue route's powers of F, stay
    numerators: the number of Series1 built does not grow with the
    degree.  The class is known to N + 2, as the residue route needs."""
    classes = {N: preset_class("todd", N + 2) for N in (12, 24)}
    built = []
    init = Series1.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Series1, "__init__", counting_init)
    counts = []
    for N, f in classes.items():
        del built[:]
        build(f, N)
        counts.append(len(built))
    assert counts[0] == counts[1]


# --------------------------------------------------------------- generating series


def test_z_closed_for_trivial_class_is_one():
    Z = z_closed(one(7), 6)
    assert Z.homogeneous(0) == (Fr(1),)
    for d in range(1, 7):
        assert all(value == 0 for value in Z.homogeneous(d))


def test_z_closed_low_degrees_for_chern_total():
    Z = z_closed(one_plus_x(5), 4)
    assert Z.homogeneous(2) == (Fr(-3), Fr(-6), Fr(-3))
    assert Z.homogeneous(4) == (Fr(10), Fr(20), Fr(34), Fr(20), Fr(10))


def test_z_closed_matches_localisation_sum():
    f = preset_class("todd", 7)
    closed = z_closed(f, 6)
    summed = z_series_hookform(f, 6)
    for d in range(7):
        assert closed.homogeneous(d) == summed.homogeneous(d)


def test_pair_coefficients_resum_to_log_derivative():
    # summing a_{k,l} over ordered pairs with k + l = m recovers the
    # m-th coefficient of log g', which ties the two tables together
    for f in (one_plus_x(9), preset_class("todd", 9)):
        table = a_kl_table(f, 8)
        log_gprime = series_log(differentiate(small_g(f, 9)))
        for m in range(2, 9):
            ordered_sum = sum(
                (table.value(k, m - k) for k in range(1, m)), Fr(0)
            )
            assert ordered_sum == log_gprime.coefficient(m)


# --------------------------------------------------------------- Chern character


def test_chern_character_tables():
    a_k, table = chern_character_tables(6)
    assert a_k == {1: Fr(2), 2: Fr(0), 3: Fr(1, 3), 4: Fr(0), 5: Fr(1, 60), 6: Fr(0)}
    assert table.kind == KIND_CHERN_CHARACTER
    assert table.value(1, 1) == 3
    assert table.value(3, 1) == Fr(5, 12)
    assert table.value(2, 2) == Fr(-5, 12)
    assert table.value(2, 1) == 0


def test_chern_character_table_holds_every_index_and_zeros_in_odd_degree():
    for N in range(25):
        table = chern_character_tables(N)[1]
        indices = [(k, l) for k in range(1, N) for l in range(1, k + 1) if k + l <= N]
        assert sorted(table.entries) == indices, N
        for (k, l), value in table.entries.items():
            assert type(value) is Fr
            if (k + l) % 2:
                assert value == 0, (k, l)


def test_dual_route_rejects_tiny_degrees():
    for n in (0, 1):
        with pytest.raises(ValueError, match="total degree n >= 2"):
            corollary_via_dual(n)


def test_dual_route_degree_six_values():
    table = corollary_via_dual(6)
    assert table.value(3, 3) == Fr(7, 120)
    assert table.value(4, 2) == Fr(-7, 180)
    assert table.value(5, 1) == Fr(7, 360)


def test_dual_route_matches_factorial_formulas():
    for n in (2, 3, 4, 6, 8):
        sliced = corollary_via_dual(n)
        _, direct = chern_character_tables(n)
        for (k, l), value in sliced.entries.items():
            assert value == direct.value(k, l), (n, k, l)


def test_dual_route_internals_before_normalization():
    # the raw eps-parts of the generic table are n! times the Chern
    # character numbers; spot-check them before the division happens
    eps = DualNumber(Fr(0), Fr(1))

    f2 = add(one(3, DUALS), monomial(eps, 2, 3, DUALS))
    assert a_kl_table(f2, 2).value(1, 1).infinitesimal == 6

    f4 = add(one(5, DUALS), monomial(eps, 4, 5, DUALS))
    table = a_kl_table(f4, 4)
    assert table.value(3, 1).infinitesimal == 10
    assert table.value(2, 2).infinitesimal == -10


def test_dual_route_single_index_slice():
    # the same square-zero trick applied to a_k: the eps-part of
    # a_{n+1} is 2/(n+1), which after the n! normalisation is 2/(n+1)!
    eps = DualNumber(Fr(0), Fr(1))
    for n in (2, 4):
        f = add(one(n + 1, DUALS), monomial(eps, n, n + 1, DUALS))
        table = a_k_table(f, n + 1)
        assert table[n + 1].infinitesimal == Fr(2, n + 1)
        direct, _ = chern_character_tables(n + 1)
        assert table[n + 1].infinitesimal / math.factorial(n) == direct[n + 1]


# --------------------------------------------------------------- universal form


def test_universal_values_for_chern_total():
    table = to_universal(a_kl_table(one_plus_x(7), 6))
    assert table.kind == KIND_UNIVERSAL
    assert table.value(1, 1) == Fr(3, 2)
    assert table.value(3, 1) == Fr(-1)
    assert table.value(2, 2) == Fr(-7, 4)
    assert table.value(5, 1) == Fr(2)
    assert table.value(4, 2) == Fr(2)
    assert table.value(3, 3) == Fr(3)


def test_universal_values_for_chern_character():
    _, raw = chern_character_tables(6)
    table = to_universal(raw)
    assert table.value(1, 1) == Fr(-3, 2)
    assert table.value(3, 1) == Fr(-5, 12)
    assert table.value(2, 2) == Fr(5, 24)
    assert table.value(5, 1) == Fr(-7, 360)
    assert table.value(4, 2) == Fr(7, 180)
    assert table.value(3, 3) == Fr(-7, 240)


def test_universal_conversion_is_restricted_by_kind():
    _, taut = taut_tables(one_plus_x(5), 4)
    with pytest.raises(ValueError, match="cannot convert"):
        to_universal(taut)
    universal = to_universal(a_kl_table(one_plus_x(5), 4))
    with pytest.raises(ValueError, match="cannot convert"):
        to_universal(universal)


# --------------------------------------------------------------- tautological tables


def test_taut_tables_for_trivial_class():
    a_k, table = taut_tables(one(7), 6)
    assert a_k == {1: Fr(1), 2: Fr(0), 3: Fr(0), 4: Fr(0), 5: Fr(0), 6: Fr(0)}
    assert all(value == 0 for value in table.entries.values())


def test_taut_tables_for_chern_total():
    # x / f(-x) = x/(1-x) inverts to x/(1+x), the alternating harmonic data
    a_k, table = taut_tables(one_plus_x(7), 6)
    assert a_k == {
        1: Fr(1),
        2: Fr(-1, 2),
        3: Fr(1, 3),
        4: Fr(-1, 4),
        5: Fr(1, 5),
        6: Fr(-1, 6),
    }
    assert all(value == 0 for value in table.entries.values())


def test_taut_tables_for_todd_against_logarithm_oracle():
    # x / todd(-x) equals exp(x) - 1, so the inverse is known in closed
    # form: g = log(1 + x).  That lets the whole pipeline be rebuilt
    # without calling the series inverter.
    N = 6
    f = preset_class("todd", N + 1)
    a_k, table = taut_tables(f, N)

    mercator = Series1(
        [Fr(0)] + [Fr((-1) ** (k - 1), k) for k in range(1, N + 2)], N + 1
    )
    for k in range(1, N + 1):
        assert a_k[k] == mercator.coefficient(k) / k
    assert a_k[2] == Fr(-1, 4)

    delta = add(in_x(mercator), negate(in_y(mercator)))
    unit = reciprocal(shift_down(mercator, 1))
    argument = divide_by_x_minus_y(delta) * in_x(unit) * in_y(unit)
    logarithm = fraction_kernels.series_log(argument)
    for (k, l), value in table.entries.items():
        assert value == logarithm.coefficient(k, l), (k, l)

    assert table.value(1, 1) == Fr(1, 12)
    assert table.value(2, 1) == Fr(-1, 24)


# No shrink phase: a failure is reported with the list as drawn, since
# shrinking 31 fractions takes minutes where the test takes a second.
@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=16), min_size=31, max_size=31))
@settings(max_examples=6, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_taut_tables_to_first_order(h):
    # f = 1 + eps h, h = h_1 x + h_2 x^2 + ...: f(-u) = 1 + eps h(-u), so
    # g = x f(-g) is x + eps x h(-x), and every table entry is first
    # order in eps, read off the powers of f(-u) on dual numerators
    N = 30
    f = Series1([DUALS.one] + [DualNumber(0, c) for c in h], N + 1, DUALS)
    a_k, table = taut_tables(f, N)
    assert a_k == {1: 1} | {k: DualNumber(0, (-1) ** (k - 1) * h[k - 2] / k) for k in range(2, N + 1)}
    assert table.entries == {(k, l): DualNumber(0, (-1) ** (k + l) * h[k + l - 1]) for k, l in table.entries}
    assert len(table.entries) == 225


def test_taut_tables_reject_bad_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        taut_tables(Series1([2, 1], 5), 4)
