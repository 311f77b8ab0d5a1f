"""``verify`` sees the single-index tangent table, and reports a route
that raises as a failed check.

Row 0 of the generating series is a second route to the a_k: with
g(0) = 0, g'(0) = 1 and G(g(x)) = x, the closed form
Z = g'(x) g'(y) (G(g(x) - g(y)) / (x - y))^2 gives Z(x, 0) = g'(x), so
[x^(k-1) y^0] Z = k^2 a_k.  ``triple-agreement`` compares the a_k of the
closed form with the fixed-point sum's row 0; the tests below check the
identity on both fixed-point routes and that a wrong normalisation of
the a_k fails there and nowhere else.

A self-check of the package that fails raises InternalCheckError, a
SeriesError, so ``verify`` reports it as FAIL lines too; ``equivariant``
does not report it as a usage error.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import cli, closedform, localisation, series, verification
from hilbfock.closedform import PRESET_NAMES, preset_class, tangent_tables
from hilbfock.localisation import z_series_hookform, z_series_residue
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import InternalCheckError, Series1


def assert_row_zero_is_k_squared_a_k(f: Series1, N: int) -> None:
    a_k = tangent_tables(f, N)[0]
    expected = [k * k * a_k[k] for k in range(1, N + 1)]
    for Z in (z_series_hookform(f.truncate(N), N), z_series_residue(f, N)):
        assert [Z.rows[k - 1][-1] for k in range(1, N + 1)] == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_row_zero_of_z_is_k_squared_a_k_on_the_presets(name):
    assert_row_zero_is_k_squared_a_k(preset_class(name, 12).f, 10)


@settings(max_examples=30, deadline=None)
@given(
    tail=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=10),
    N=st.integers(min_value=1, max_value=7),
)
def test_row_zero_of_z_is_k_squared_a_k_on_random_classes(tail, N):
    assert_row_zero_is_k_squared_a_k(Series1.from_coefficients((Fr(1), *tail), N + 2), N)


@settings(max_examples=10, deadline=None)
@given(N=st.integers(min_value=1, max_value=10))
def test_row_zero_of_z_is_k_squared_a_k_over_dual_numbers(N):
    # f = 1 + eps (x^2 + x^4 + ...), the Chern-character class of
    # ``corollary_via_dual``
    eps = DualNumber(Fr(0), Fr(1))
    f = Series1((DUALS.one,) + (DUALS.zero, eps) * (N // 2 + 1), N + 2, DUALS)
    assert_row_zero_is_k_squared_a_k(f, N)


def test_a_wrong_normalisation_of_a_k_fails_the_triple_agreement_only(monkeypatch):
    # a_k = [x^k] g / k^2 instead of [x^k] g / k: a_1 = 1 and the even
    # a_k = 0 are unchanged, so the first k it shows at is 3
    a_k = closedform._a_k
    monkeypatch.setattr(closedform, "_a_k", lambda g, N: {k: v / k for k, v in a_k(g, N).items()})
    results = verification.verify_multiplicative(preset_class("todd", 10).f, "todd", 8)
    failed = [result for result in results if not result.passed]
    assert [result.name for result in failed] == ["triple-agreement"]
    assert failed[0].detail == (
        "at x^2 y^0 the fixed-point sum gives -1/4, but 3^2 a_3 = -1/12 from the closed form"
    )


def test_a_closed_form_that_raises_fails_each_check_that_reads_it(monkeypatch, capsys):
    # One numerator too high at T[2][n - 3] in the closed form's
    # congruence leaves the tangent tables' product not divisible by
    # (x - y).  The tables are cached by the run, and a cache keeps no
    # exception, so every check that reads them raises again; each is a
    # FAIL with the error as its detail, and nothing reaches stderr.
    congruence = series.congruence_numerators

    def perturbed(C, T, n):
        rows = [list(row) for row in T]
        rows[2][n - 3] = rows[2][n - 3] + 1
        return congruence(C, rows, n)

    for module in (series, closedform):
        monkeypatch.setattr(module, "congruence_numerators", perturbed)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL")]
    assert failed == ["triple-agreement", "log-exp-consistency", "parity", "dual-number-oracle"]
    details = [lines[i + 1].strip() for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert details == [
        "the closed-form tables raised SeriesError: not divisible by (x - y)",
        *["raised SeriesError: not divisible by (x - y)"] * 3,
    ]
    assert lines[-1] == "3/7 checks passed (class todd, order 8)"
    assert captured.err == ""


def test_a_bug_that_is_not_a_series_error_still_raises(monkeypatch):
    def broken(f, N):
        raise RuntimeError("a bug, not a route fault")

    monkeypatch.setattr(verification, "tangent_tables", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        verification.verify_multiplicative(preset_class("todd", 10).f, "todd", 8)


def _raise_the_third_power_of_each_chain(monkeypatch):
    # the inverse's own powers of g no longer match G, so its round-trip
    # check fails
    chain = series.power_chain

    def perturbed(ring, coefficients, count, n):
        for a, (P, D) in enumerate(chain(ring, coefficients, count, n), 1):
            yield ([*P[:3], P[3] + 1, *P[4:]] if a == 3 else P), D

    monkeypatch.setattr(series, "power_chain", perturbed)


def _raise_an_odd_tangent_entry(monkeypatch):
    # a tangent table with a nonzero entry of odd total degree
    entries = closedform._pair_log_entries

    def perturbed(*args):
        out = entries(*args)
        out[(2, 1)] += 1
        return out

    monkeypatch.setattr(closedform, "_pair_log_entries", perturbed)


@pytest.mark.parametrize(
    "perturb, message",
    [
        (_raise_the_third_power_of_each_chain, "compositional inverse failed its round-trip check"),
        (_raise_an_odd_tangent_entry, "entry (2, 1) of odd total degree must vanish"),
    ],
    ids=["round-trip", "odd-degree"],
)
def test_a_failed_internal_check_is_a_fail_line_not_a_traceback(monkeypatch, capsys, perturb, message):
    perturb(monkeypatch)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert lines[failed[0]].split()[1] == "triple-agreement"
    for i in failed:
        assert "raised InternalCheckError: " in lines[i + 1] and message in lines[i + 1]
    assert lines[-1].startswith("2/7 checks passed")
    assert captured.err == ""


def test_a_class_log_fault_under_equivariant_is_not_a_usage_error(monkeypatch, capsys):
    # log(1 + u) has odd weights, so a doubled denominator leaves a remainder
    log = localisation.log_numerators

    def doubled(f, n):
        R, Q = log(f, n)
        return R, 2 * Q

    monkeypatch.setattr(localisation, "log_numerators", doubled)
    with pytest.raises(InternalCheckError, match="not integers"):
        cli.main(["equivariant", "--class", "1", "--gamma", "3", "--level", "3"])
    assert capsys.readouterr().err == ""
