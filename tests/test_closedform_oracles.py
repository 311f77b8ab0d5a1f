"""The closed-form fast paths checked against the code they replaced.

The oracles below are the earlier pipelines taken literally: the
inverse solved degree by degree through Horner compositions, the
composite F(g(x) - g(y)) by Horner's scheme over two-variable series,
the two-variable log summed as the power series in f - 1, the pair
table as the log of one two-variable quotient, and the pair table as
the two-variable log recurrence on (g(x) - g(y)) / (x - y), less
(log F)(g(x) - g(y)) for the tangent target.  The library inverts
x / F by the Lagrange formula on the powers of F, with no reciprocal,
and composes the difference as a congruence of triangular matrices
for ``z_closed``, and reads the tables off the powers of F (tangent)
or f(-u) (tautological) by Lagrange-Buermann, with no inversion and
no two-variable series at all; the routes must agree exactly.
"""

import ast
import inspect
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import closedform, localisation, series
from hilbfock.closedform import (
    KIND_TAUTOLOGICAL,
    KIND_THEOREM,
    PRESET_NAMES,
    CoeffTable,
    a_k_table,
    a_kl_table,
    big_g,
    corollary_via_dual,
    preset_class,
    small_g,
    tangent_tables,
    taut_tables,
    z_closed,
)
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import (
    Series1,
    Series2,
    NotInvertibleError,
    compose_difference_numerators,
    compositional_inverse,
    differentiate,
    divide_by_x_minus_y,
    negate_argument,
    reciprocal,
    series_log,
    shift_up,
)

from fraction_kernels import add, compose, compose_difference, in_x, in_y, joined_powers, joined_rows
from fraction_kernels import monomial, negate, one, scale, zero
from fraction_kernels import power_numerators, power_table, series2_from_dict, shift_down
from fraction_kernels import series_log as ring_element_log
from lagrange_good import reciprocal2

EPS = DualNumber(0, 1)


def oracle_inverse(series: Series1) -> Series1:
    """Solve for the inverse degree by degree, one Horner composition each."""
    ring = series.ring
    n = series.order
    lin_inv = ring.one / series.coefficients[1]
    coeffs = [ring.zero, lin_inv] + [ring.zero] * (n - 1)
    for k in range(2, n + 1):
        partial = Series1(tuple(coeffs[: k + 1]), k, ring)
        defect = compose(series.truncate(k), partial).coefficients[k]
        coeffs[k] = -lin_inv * defect
    return Series1(tuple(coeffs), n, ring)


def oracle_log2(series: Series2) -> Series2:
    """log f as the sum of (-1)^(k+1) (f - 1)^k / k over two-variable series."""
    ring = series.ring
    u = add(series, -ring.one)
    acc, power = zero(Series2, series.order, ring), u
    for k in range(1, series.order + 1):
        acc = add(acc, scale(power, ring.coerce((-1) ** (k + 1)) / ring.coerce(k)))
        power = power * u
    return acc


def _difference(g: Series1) -> Series2:
    return add(in_x(g), negate(in_y(g)))


def _mixed_entries(logarithm: Series2, N: int) -> dict:
    entries = {}
    for total in range(2, N + 1):
        for k in range((total + 1) // 2, total):
            entries[(k, total - k)] = logarithm.coefficient(k, total - k)
    return entries


def oracle_tangent_tables(f: Series1, N: int):
    fine = f.truncate(N + 1)
    g = oracle_inverse(big_g(fine))
    a_k = {k: g.coefficient(k) / k for k in range(1, N + 1)}
    delta = _difference(g)
    ratio = divide_by_x_minus_y(delta)
    F_of_delta = compose(fine * negate_argument(fine), delta.truncate(N))
    logarithm = oracle_log2(ratio * reciprocal2(F_of_delta))
    return a_k, CoeffTable(KIND_THEOREM, N, _mixed_entries(logarithm, N))


def oracle_taut_tables(f: Series1, N: int):
    fine = f.truncate(N + 1)
    g = oracle_inverse(shift_up(reciprocal(negate_argument(fine)).truncate(N), 1))
    a_k = {k: g.coefficient(k) / k for k in range(1, N + 1)}
    ratio = divide_by_x_minus_y(_difference(g))
    unit = reciprocal(shift_down(g, 1))
    argument = ratio * in_x(unit) * in_y(unit)
    return a_k, CoeffTable(KIND_TAUTOLOGICAL, N, _mixed_entries(oracle_log2(argument), N))


def _log_pipeline_entries(g: Series1, N: int, outer_log: Series1 | None = None) -> dict:
    """The pair table as the two-variable log of (g(x) - g(y)) / (x - y)."""
    logarithm = ring_element_log(divide_by_x_minus_y(_difference(g)))
    if outer_log is not None:
        logarithm = add(logarithm, negate(compose_difference(outer_log.truncate(N), power_table(g))))
    return _mixed_entries(logarithm, N)


def log_pipeline_tangent_table(f: Series1, N: int) -> CoeffTable:
    fine = f.truncate(N + 1)
    outer_log = series_log(fine * negate_argument(fine))
    return CoeffTable(KIND_THEOREM, N, _log_pipeline_entries(small_g(fine, N + 1), N, outer_log))


def log_pipeline_taut_table(f: Series1, N: int) -> CoeffTable:
    # the inverse of x / f(-x): phi = f(-x) is not even
    fine = f.truncate(N + 1)
    g, _ = compositional_inverse(negate_argument(fine).truncate(N))
    return CoeffTable(KIND_TAUTOLOGICAL, N, _log_pipeline_entries(g, N))


def oracle_z_closed(f: Series1, N: int) -> Series2:
    G = big_g(f.truncate(N + 1))
    g = oracle_inverse(G)
    ratio = divide_by_x_minus_y(compose(G, _difference(g)))
    derivative = differentiate(g)
    return in_x(derivative) * in_y(derivative) * ratio * ratio


def assert_all_routes_match(f: Series1, N: int) -> None:
    a_k, table = tangent_tables(f, N)
    assert (a_k, table) == oracle_tangent_tables(f, N)
    assert a_k_table(f, N) == a_k
    assert a_kl_table(f, N) == table
    assert table == log_pipeline_tangent_table(f, N)
    taut = taut_tables(f, N)
    assert taut == oracle_taut_tables(f, N)
    assert taut[1] == log_pipeline_taut_table(f, N)
    assert z_closed(f, N) == oracle_z_closed(f, N)


# ------------------------------------------------------------ whole tables


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_the_horner_pipelines(name):
    f = preset_class(name, 17)
    for N in (1, 2, 3, 6, 11, 16):
        assert_all_routes_match(f, N)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@given(st.lists(small_rationals, min_size=1, max_size=6), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_random_classes_match_the_horner_pipelines(tail, N):
    f = Series1((Fr(1), *tail), N + 1)
    assert_all_routes_match(f, N)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_dual_number_classes_match_the_horner_pipelines(n):
    f = add(one(9, DUALS), monomial(EPS, n, 9, DUALS))
    assert_all_routes_match(f, 8)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_corollary_via_dual_matches_the_log_pipeline(n):
    f = add(one(n + 1, DUALS), monomial(EPS, n, n + 1, DUALS))
    table = log_pipeline_tangent_table(f, n)
    scale = Fr(1, math.factorial(n))
    expected = {
        pair: value.infinitesimal * scale
        for pair, value in table.entries.items()
        if pair[0] + pair[1] == n
    }
    whole = corollary_via_dual(n).entries
    assert {pair: v for pair, v in whole.items() if sum(pair) == n} == expected


def corollary_slice(n: int) -> dict:
    """The degree-n slice of the Chern-character table, per slice: one
    dual-number run of ``a_kl_table`` with f = 1 + eps*x^n, whose
    eps-parts of total degree n are n! times the entries."""
    f = add(one(n + 1, DUALS), monomial(EPS, n, n + 1, DUALS))
    scale = Fr(1, math.factorial(n))
    return {
        pair: value.infinitesimal * scale
        for pair, value in a_kl_table(f, n).entries.items()
        if pair[0] + pair[1] == n
    }


def test_one_dual_run_matches_the_per_slice_runs():
    # the eps-part is graded: the entries of total degree m come from
    # the x^m term of f alone, so one run gives every slice
    whole = corollary_via_dual(12).entries
    for m in range(2, 13):
        part = {pair: v for pair, v in whole.items() if sum(pair) == m}
        if m % 2:
            assert part and not any(part.values())
        else:
            assert part == corollary_slice(m)
    for n in range(2, 13, 2):
        assert corollary_via_dual(n).entries == {
            pair: v for pair, v in whole.items() if sum(pair) <= n
        }


def test_corollary_via_dual_runs_its_kernels_on_integer_pairs(monkeypatch):
    # DUALS.split hands the kernels integer pairs, so DualNumbers are
    # built only where a kernel returns coefficients; passing them
    # through as their own numerators built 2372 here
    built = []
    init = DualNumber.__init__

    def counting_init(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(DualNumber, "__init__", counting_init)
    corollary_via_dual(12)
    assert len(built) <= 1000


# ----------------------------------------------------------------- inverse


@given(st.lists(small_rationals, min_size=1, max_size=8), st.fractions(1, 3, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_lagrange_inverse_matches_degree_by_degree(tail, constant):
    phi = Series1((constant, *tail), len(tail))
    g, powers = compositional_inverse(phi)
    assert g == oracle_inverse(shift_up(reciprocal(phi), 1))
    assert joined_powers(powers, g.ring) == power_table(g)


def test_lagrange_inverse_over_duals():
    phi = Series1((1 + EPS, Fr(1, 2), -3 * EPS, Fr(2, 3) + EPS, 0, 1), 5, DUALS)
    assert compositional_inverse(phi)[0] == oracle_inverse(shift_up(reciprocal(phi), 1))


# ------------------------------------------------------ compose_difference


@given(
    st.lists(small_rationals, min_size=1, max_size=8),
    st.lists(small_rationals, min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_compose_difference_matches_horner(outer_values, inner_tail):
    outer = Series1(outer_values, len(outer_values) - 1)
    g = Series1((Fr(0), *inner_tail), len(inner_tail))
    result = joined_rows(*compose_difference_numerators(outer, power_numerators(g)), outer.ring)
    assert result == compose(outer, _difference(g))
    assert result.order == min(outer.order, g.order)


def test_compose_difference_over_duals():
    outer = Series1((1 + EPS, 2, -EPS, Fr(1, 3), 0, 5 * EPS, -1), 6, DUALS)
    g = Series1((0, 1, EPS, Fr(-1, 2) + EPS, 0, 2), 7, DUALS)
    powers = power_numerators(g)
    for truncated in (outer, outer.truncate(3)):
        result = joined_rows(*compose_difference_numerators(truncated, powers), DUALS)
        assert result == compose(truncated, _difference(g))


def test_compose_difference_rejects_bad_inner_series():
    # the table of powers comes only from an inversion, which refuses a
    # phi with no unit constant term: x / phi would have no linear one
    with pytest.raises(NotInvertibleError, match="not invertible under composition"):
        compositional_inverse(Series1((Fr(0), Fr(1), Fr(0)), 2))


# --------------------------------------------------------- two-variable log


series2_entries = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda ij: ij != (0, 0)),
    small_rationals,
    max_size=8,
)


@given(series2_entries, st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_series2_log_recurrence_matches_power_series(entries, order):
    series = series2_from_dict({(0, 0): Fr(1), **entries}, order)
    assert ring_element_log(series) == oracle_log2(series)


def test_series2_log_recurrence_matches_power_series_over_duals():
    entries = {(0, 0): DUALS.one, (1, 0): Fr(1, 2) + EPS, (0, 1): -EPS, (2, 1): Fr(-2, 3), (0, 4): 3 * EPS}
    series = series2_from_dict(entries, 6, DUALS)
    assert ring_element_log(series) == oracle_log2(series)


# ---------------------------------------------------- route independence


def test_localisation_keeps_its_own_composition(monkeypatch):
    """The fixed-point routes share nothing with the closed form's fast paths."""
    tree = ast.parse(inspect.getsource(localisation))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported[node.module] = {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported.update({alias.name: set() for alias in node.names})
    assert not any(module and module.endswith("closedform") for module in imported)
    assert not any(name.startswith("compose_difference") for names in imported.values() for name in names)
    assert "compose" in imported["series"]

    calls = []

    def counting_compose(outer, inner):
        calls.append(type(inner))
        return compose(outer, inner)

    monkeypatch.setattr(localisation, "compose", counting_compose)
    f = preset_class("todd", 6)
    localisation.z_series_residue(f, 4)
    assert Series2 in calls


@pytest.mark.parametrize("build", [tangent_tables, taut_tables, z_closed])
def test_closed_form_runs_no_horner_composition_or_bivariate_log(monkeypatch, build):
    """The closed form composes by congruences and logs in one variable only.

    ``z_closed`` squares its ratio and multiplies it by g'(x) g'(y) on
    numerator rows, so no ``Series2`` product is formed; nor do the
    tables form one.
    """
    calls = {"compose": 0, "series_log": 0, "mul": 0}
    multiply = Series2.__mul__

    def counting_compose(outer, inner):
        calls["compose"] += 1
        return compose(outer, inner)

    def counting_log(argument):
        calls["series_log"] += isinstance(argument, Series2)
        return series_log(argument)

    def counting_mul(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    for module in (series, closedform):
        monkeypatch.setattr(module, "compose", counting_compose, raising=False)
        monkeypatch.setattr(module, "series_log", counting_log)
    monkeypatch.setattr(Series2, "__mul__", counting_mul)
    build(preset_class("todd", 13), 12)
    assert calls["compose"] == 0
    assert calls["series_log"] == 0
    assert calls["mul"] == 0


@pytest.mark.parametrize(
    "label, coefficients",
    [("todd", None), ("2/3,-4/9,-1/7", (Fr(2, 3), Fr(-4, 9), Fr(-1, 7)))],
)
def test_small_g_matches_sympy_series_reversion(label, coefficients):
    """small_g against sympy: G = z/(f(z)f(-z)) expanded and reverted there."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_reversion

    N = 8
    R, x, y = sympy.ring("x, y", sympy.QQ)
    z = sympy.Symbol("x")
    if coefficients is None:
        f_expr = z / (1 - sympy.exp(-z))
        f = preset_class(label, N)
    else:
        f_expr = 1 + sum(
            sympy.Rational(c.numerator, c.denominator) * z ** (k + 1)
            for k, c in enumerate(coefficients)
        )
        f = Series1((1, *coefficients), N)
    G = sympy.series(z / (f_expr * f_expr.subs(z, -z)), z, 0, N + 1).removeO()
    reverted = rs_series_reversion(R.from_expr(G), x, N + 1, y)
    expected = [Fr(0)] * (N + 1)
    for (i, j), c in reverted.terms():
        assert i == 0
        expected[j] = Fr(int(c.numerator), int(c.denominator))
    assert small_g(f, N).coefficients == tuple(expected)
