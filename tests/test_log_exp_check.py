"""The log-exp check of ``verify`` against the log it no longer takes.

``verification._check_log_exp`` tests log Z = R, R the double sum of the
a_kl, as E(Z) = Z E(R) with E = x d/dx + y d/dy, one two-variable
product.  The oracle below is the form it replaced: the two-variable
log recurrence on ring elements, compared with R.  The two must agree
on right tables and on wrong ones, and a fault in the shared log must
still reach the checks that could see it.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import localisation, series, verification
from hilbfock.closedform import PRESET_NAMES, CoeffTable, preset_class, tangent_tables, z_closed
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import Series1, Series2

from fraction_kernels import scale, series2_from_dict, series_log

EPS = DualNumber(Fr(0), Fr(1))


def oracle_check_log_exp(z: Series2, table: CoeffTable, order: int) -> bool:
    rebuilt = {}
    for k in range(1, order):
        for l in range(1, order + 1 - k):
            for cell in ((k + l, 0), (0, k + l), (k, l), (l, k)):
                rebuilt[cell] = rebuilt.get(cell, z.ring.zero) + table.value(k, l)
    return series_log(z) == series2_from_dict(rebuilt, order, z.ring)


def nudged(table: CoeffTable, pair, amount) -> CoeffTable:
    entries = dict(table.entries)
    entries[pair] = entries[pair] + amount
    return CoeffTable(table.kind, table.max_degree, entries)


def assert_forms_agree(f: Series1, order: int, amount) -> None:
    """Both forms pass on the tables of f, and both fail on each table
    with one entry of even total degree moved by ``amount``."""
    z = z_closed(f, order)
    table = tangent_tables(f, order)[1]
    assert verification._check_log_exp(z, table) == ""
    assert oracle_check_log_exp(z, table, order)
    for (k, l) in table.entries:
        if (k + l) % 2 == 0:
            wrong = nudged(table, (k, l), amount)
            assert verification._check_log_exp(z, wrong) != ""
            assert not oracle_check_log_exp(z, wrong, order)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_product_form_agrees_with_the_log_form_on_presets(name):
    assert_forms_agree(preset_class(name, 10), 8, Fr(1, 10**6))


@settings(max_examples=20, deadline=None)
@given(
    tail=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=8),
    order=st.integers(min_value=2, max_value=6),
)
def test_product_form_agrees_with_the_log_form_on_random_classes(tail, order):
    f = Series1((Fr(1), *tail), order + 1)
    assert_forms_agree(f, order, Fr(1, 10**6))


def test_product_form_agrees_with_the_log_form_over_dual_numbers():
    # a move in the eps part only, which the real part cannot show
    f = Series1((DUALS.one, Fr(1, 2) + EPS, -3 * EPS, Fr(-2, 3), 0, EPS, Fr(5, 7), EPS), 7, DUALS)
    assert_forms_agree(f, 6, EPS * Fr(1, 10**6))


def test_a_table_entry_off_by_a_millionth_fails_log_exp_consistency(monkeypatch):
    f = preset_class("todd", 10)
    tables = tangent_tables(f, 8)

    def skewed(g, N):
        a_k, table = tables
        return a_k, nudged(table, (3, 3), Fr(1, 10**6))

    monkeypatch.setattr(verification, "tangent_tables", skewed)
    results = {r.name: r for r in verification.verify_multiplicative(f, "todd", 8)}
    assert not results["log-exp-consistency"].passed
    assert results["log-exp-consistency"].detail.startswith("first difference at x^")
    assert results["triple-agreement"].passed


def test_log_exp_check_rejects_a_scaled_z():
    # E(Z) = Z E(R) holds for every constant multiple of Z as well
    f = preset_class("todd", 8)
    z = z_closed(f, 6)
    table = tangent_tables(f, 6)[1]
    assert verification._check_log_exp(scale(z, 2), table) == "Z has constant term 2, not 1"


# ------------------------------------------------------------- a fault in the shared log


def log_dropping(dropped):
    """``series.log_numerators`` without the terms k of its sum at m for
    which dropped(k, m) holds, and with no cancelling."""

    def mutant(f):
        F, d = f.ring.split(f.coefficients)
        R, Q = [0], 1
        for m in range(1, f.order + 1):
            acc = m * F[m] * Q
            for k in range(1, m):
                if not dropped(k, m):
                    acc = acc + -(R[k] * F[m - k])
            R = [r * d for r in R] + [acc]
            Q *= d
        return R, Q

    return mutant


def checks_passed_with_log(monkeypatch, log):
    for module in (series, localisation):
        monkeypatch.setattr(module, "log_numerators", log)
    results = verification.verify_multiplicative(preset_class("todd", 10), "todd", 8)
    return {r.name: r.passed for r in results}


def test_the_mutant_log_with_nothing_dropped_passes_every_check(monkeypatch):
    passed = checks_passed_with_log(monkeypatch, log_dropping(lambda k, m: False))
    assert all(passed.values())


def test_a_fault_in_the_even_part_of_the_log_fails_both_checks(monkeypatch):
    passed = checks_passed_with_log(monkeypatch, log_dropping(lambda k, m: k == 2))
    assert not passed["triple-agreement"]
    assert not passed["log-exp-consistency"]


def test_a_fault_in_the_odd_part_of_the_log_fails_the_triple_agreement(monkeypatch):
    # log-exp-consistency takes the log of F(u) = f(u) f(-u), which is
    # even, so a fault in the odd weights cannot reach it; the hook form
    # takes the log of f, whose odd weights feed its even ones
    passed = checks_passed_with_log(monkeypatch, log_dropping(lambda k, m: k == 2 and m % 2))
    assert not passed["triple-agreement"]
    assert passed["log-exp-consistency"]


@pytest.mark.parametrize(
    "f, N",
    [(Series1((Fr(1), Fr(2, 3), Fr(-4, 9), Fr(-1, 7)), 105), 104), (preset_class("todd", 57), 56)],
    ids=["pool-class-104", "todd-56"],
)
def test_the_tables_witness_z_closed_above_the_verify_cap(f, N):
    """The tangent tables read off the powers of f(u) f(-u) and the
    closed-form Z from the inverse share nothing but ``power_chain``, so
    log Z = R and row 0 of Z, [x^(k-1) y^0] Z = k^2 a_k, compare two
    routes at every degree that ``table`` prints, up to its cap."""
    Z = z_closed(f, N)
    a_k, table = tangent_tables(f, N)
    assert verification._check_log_exp(Z, table) == ""
    assert [Z.rows[k - 1][-1] for k in range(1, N + 1)] == [k * k * a_k[k] for k in range(1, N + 1)]
