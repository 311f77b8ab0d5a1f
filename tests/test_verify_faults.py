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

The mutation matrix puts one fault into each binding of a numerator
kernel in ``series``, ``closedform`` and ``localisation``, at an entry
that is read, and requires ``verify`` to end in a FAIL line with
nothing on stderr.  One known fault is not in it: a change to an odd
weight of ``_class_log`` (say c^3 added to w_3) passes every check,
because ``verify`` runs the fixed-point sums at twist 2 only, where the
weights come in +- pairs and the odd power sums vanish.

Each FAIL line that the checks can print is reached by one fault below:
a route that stops one degree short, a residue route that differs, an
even a_k, an odd layer of Z, a wrong table of the trivial class and a
wrong universal anchor.
"""

import ast
import inspect

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import cli, closedform, localisation, series, verification
from hilbfock.closedform import PRESET_NAMES, preset_class, tangent_tables
from hilbfock.localisation import z_series_hookform, z_series_residue
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import InternalCheckError, Series1, Series2
from test_fixed_point_oracles import _even_part_undoubled, _odd_part, replace_log_of_F


def assert_row_zero_is_k_squared_a_k(f: Series1, N: int) -> None:
    a_k = tangent_tables(f, N)[0]
    expected = [k * k * a_k[k] for k in range(1, N + 1)]
    for Z in (z_series_hookform(f.truncate(N), N), z_series_residue(f, N)):
        assert [Z.rows[k - 1][-1] for k in range(1, N + 1)] == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_row_zero_of_z_is_k_squared_a_k_on_the_presets(name):
    assert_row_zero_is_k_squared_a_k(preset_class(name, 12), 10)


@settings(max_examples=30, deadline=None)
@given(
    tail=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=10),
    N=st.integers(min_value=1, max_value=7),
)
def test_row_zero_of_z_is_k_squared_a_k_on_random_classes(tail, N):
    assert_row_zero_is_k_squared_a_k(Series1((Fr(1), *tail), N + 2), N)


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
    power_tables = closedform._power_tables

    def perturbed(P, N, subtract_log):
        a_k, entries = power_tables(P, N, subtract_log)
        return {k: v / k for k, v in a_k.items()}, entries

    monkeypatch.setattr(closedform, "_power_tables", perturbed)
    results = verification.verify_multiplicative(preset_class("todd", 10), "todd", 8)
    failed = [result for result in results if not result.passed]
    assert [result.name for result in failed] == ["triple-agreement"]
    assert failed[0].detail == (
        "at x^2 y^0 the fixed-point sum gives -1/4, but 3^2 a_3 = -1/12 from the closed form"
    )


def test_a_closed_form_that_raises_fails_each_check_that_reads_it(monkeypatch, capsys):
    # One numerator too high in G(g(x) - g(y)) leaves the closed form's
    # ratio not divisible by (x - y).  Z is cached by the run, and a
    # cache keeps no exception, so every check that reads Z raises again;
    # each is a FAIL with the error as its detail, and nothing reaches
    # stderr.  The tables share no step with Z but ``power_chain``, so
    # the checks that read only them pass.
    compose = closedform.compose_difference_numerators

    def perturbed(outer, powers):
        rows, c = compose(outer, powers)
        rows[3][1] += 1
        return rows, c

    monkeypatch.setattr(closedform, "compose_difference_numerators", perturbed)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL")]
    assert failed == ["triple-agreement", "log-exp-consistency", "parity", "symmetry", "triviality-baseline"]
    details = [lines[i + 1].strip() for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert details == [
        "the closed form raised SeriesError: not divisible by (x - y)",
        *["raised SeriesError: not divisible by (x - y)"] * 4,
    ]
    assert lines[-1] == "2/7 checks passed (class todd, order 8)"
    assert captured.err == ""


def test_a_bug_that_is_not_a_series_error_still_raises(monkeypatch):
    def broken(f, N):
        raise RuntimeError("a bug, not a route fault")

    monkeypatch.setattr(verification, "tangent_tables", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        verification.verify_multiplicative(preset_class("todd", 10), "todd", 8)


def _raise_the_third_power_of_each_chain(monkeypatch):
    # [x^3] g^3 no longer matches [u^0] phi^3 by Lagrange-Buermann, so
    # the inverse's round-trip check fails; phi^3 is read below u^3
    monkeypatch.setattr(series, "power_chain", _raise_power(3, 3)(series.power_chain))


def _raise_g_squared_at_x_cubed(monkeypatch):
    # g is odd, so a check on G(g(x)) = x alone, with G odd, reads no
    # even power of g; the congruence of ``z_closed`` reads them all.
    # phi^2 is read below u^2.
    monkeypatch.setattr(series, "power_chain", _raise_power(2, 3)(series.power_chain))


def _raise_an_odd_tangent_entry(monkeypatch):
    # a tangent table with a nonzero entry of odd total degree
    power_tables = closedform._power_tables

    def perturbed(P, N, subtract_log):
        a_k, entries = power_tables(P, N, subtract_log)
        entries[(2, 1)] += 1
        return a_k, entries

    monkeypatch.setattr(closedform, "_power_tables", perturbed)


@pytest.mark.parametrize(
    "perturb, message, passed",
    [
        # the tables and so ``dual-number-oracle`` take no inverse, nor
        # does ``fixed-point-reduction``; ``triviality-baseline`` inverts
        # x / 1, and every power of its g = x is checked too
        (_raise_the_third_power_of_each_chain, "compositional inverse failed its round-trip check", 2),
        (_raise_g_squared_at_x_cubed, "compositional inverse failed its round-trip check", 2),
        (_raise_an_odd_tangent_entry, "entry (2, 1) of odd total degree must vanish", 2),
    ],
    ids=["round-trip", "even-power", "odd-degree"],
)
def test_a_failed_internal_check_is_a_fail_line_not_a_traceback(monkeypatch, capsys, perturb, message, passed):
    perturb(monkeypatch)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert lines[failed[0]].split()[1] == "triple-agreement"
    for i in failed:
        assert "raised InternalCheckError: " in lines[i + 1] and message in lines[i + 1]
    assert lines[-1].startswith(f"{passed}/7 checks passed")
    assert captured.err == ""


@pytest.mark.parametrize("mutant", [_odd_part, _even_part_undoubled])
def test_a_wrong_log_of_F_fails_the_hook_form_checks(monkeypatch, capsys, mutant):
    # only the hook form reads F's weights: ``z_series_hookform`` in the
    # triple agreement and ``hook_coefficient`` in the twist-2 reduction
    replace_log_of_F(monkeypatch, mutant)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    failed = [line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert failed == ["triple-agreement", "fixed-point-reduction"]
    assert captured.err == ""


def test_a_class_log_fault_under_equivariant_is_not_a_usage_error(monkeypatch, capsys):
    # log(1 + u) has odd weights, so a doubled denominator leaves a remainder
    log = localisation.log_numerators

    def doubled(f):
        R, Q = log(f)
        return R, 2 * Q

    monkeypatch.setattr(localisation, "log_numerators", doubled)
    with pytest.raises(InternalCheckError, match="not integers"):
        cli.main(["equivariant", "--class", "1", "--gamma", "3", "--level", "3"])
    assert capsys.readouterr().err == ""


# --------------------------------------------------------------- mutation matrix

# The numerator interface of ``series``, with the table of powers that
# ``compositional_inverse`` returns.
NUMERATOR_KERNELS = (
    "convolve_numerators",
    "multiply_graded_rows",
    "divide_numerators_by_x_minus_y",
    "congruence_numerators",
    "power_chain",
    "quotient_numerators",
    "log_numerators",
    "compose_difference_numerators",
    "compositional_inverse",
)


def _add_one(*path):
    """A kernel wrapper that adds 1 at result[path[0]][path[1]]..., when
    the result is large enough to have that entry."""

    def wrap(kernel):
        def perturbed(*args):
            result = kernel(*args)
            *outer, last = path
            value = result
            for index in outer:
                if index >= len(value):
                    return result
                value = value[index]
            if last < len(value):
                value[last] += 1
            return result

        return perturbed

    return wrap


def _raise_power(power, index):
    """A ``power_chain`` wrapper that adds 1 at one entry of one power."""

    def wrap(kernel):
        def perturbed(*args):
            for a, (P, D) in enumerate(kernel(*args), 1):
                yield ([*P[:index], P[index] + 1, *P[index + 1 :]] if a == power else P), D

        return perturbed

    return wrap


def _raise_even_log_weight(kernel):
    """A ``log_numerators`` wrapper that adds 1 to the weight W_2, which
    keeps the scaled weights of ``_class_log`` integers."""

    def perturbed(f):
        R, Q = kernel(f)
        return [*R[:2], R[2] + Q, *R[3:]] if len(R) > 2 else R, Q

    return perturbed


MATRIX = {
    (series, "convolve_numerators"): _add_one(2),
    (series, "multiply_graded_rows"): _add_one(0, 2, 1),
    (series, "divide_numerators_by_x_minus_y"): _add_one(2, 1),
    (series, "congruence_numerators"): _add_one(2, 1),
    (series, "power_chain"): _raise_power(3, 3),
    (series, "quotient_numerators"): _add_one(0, 3),
    (series, "log_numerators"): _raise_even_log_weight,
    (closedform, "multiply_graded_rows"): _add_one(0, 2, 1),
    (closedform, "divide_numerators_by_x_minus_y"): _add_one(2, 1),
    (closedform, "compose_difference_numerators"): _add_one(0, 3, 1),
    # P^3 at u^4, read as [u^(k+m)] P^k for (k, m) = (3, 1); the tables
    # never read P^3 at u^3
    (closedform, "power_chain"): _raise_power(3, 4),
    # T[1][2], the numerator of [x^3] g
    (closedform, "compositional_inverse"): _add_one(1, 0, 1, 2),
    # F^3 at a^2: the residue route reads F^(r + 1) to degree r only, so
    # a fault in F^2 at a^2 would change nothing
    (localisation, "power_chain"): _raise_power(3, 2),
    (localisation, "congruence_numerators"): _add_one(2, 1),
    (localisation, "log_numerators"): _raise_even_log_weight,
}


def _kernel_bindings() -> set[tuple]:
    """(module, kernel) for each module whose functions look the kernel up."""
    found = set()
    for module in (series, closedform, localisation):
        for function in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Name) and node.id in NUMERATOR_KERNELS:
                        found.add((module, node.id))
    return found


def test_the_mutation_matrix_covers_every_kernel_binding():
    assert set(MATRIX) == _kernel_bindings()


@pytest.mark.parametrize(
    "module, kernel", list(MATRIX), ids=[f"{m.__name__.split('.')[-1]}.{k}" for m, k in MATRIX]
)
def test_a_numerator_kernel_fault_ends_in_a_fail_line(monkeypatch, capsys, module, kernel):
    monkeypatch.setattr(module, kernel, MATRIX[module, kernel](getattr(module, kernel)))
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    assert any(line.startswith("FAIL") for line in captured.out.splitlines())
    assert captured.err == ""


# ------------------------------------------------------------ each FAIL line


def _fail_details(argv: list[str], capsys) -> dict[str, str]:
    """Run ``verify`` through ``cli.main``, require exit 1 and nothing on
    stderr, and return the detail of each FAIL line by check name."""
    assert cli.main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    return {line.split()[1]: lines[i + 1].strip() for i, line in enumerate(lines) if line.startswith("FAIL")}


def _plus_one_at(Z: Series2, degree: int, *places: int) -> Series2:
    """Z with 1 added at the given places of the row of total degree ``degree``."""
    rows = [list(row) for row in Z.rows]
    for i in places:
        rows[degree][i] += 1
    return Series2(tuple(map(tuple, rows)), Z.order, Z.ring)


@pytest.mark.parametrize(
    "route, label, spec, order",
    [
        ("z_series_residue", "residue extraction", "todd", 8),
        ("z_series_hookform", "fixed-point sum", "2/3,-4/9,-1/7", 11),
    ],
    ids=["residue", "hookform"],
)
def test_a_route_one_degree_short_fails_the_triple_agreement(monkeypatch, capsys, route, label, spec, order):
    # every row the two series share agrees, so only the orders tell them apart
    full = getattr(verification, route)
    monkeypatch.setattr(verification, route, lambda f, N: full(f, N).truncate(N - 1))
    assert _fail_details(["--class", spec, "--order", str(order)], capsys) == {
        "triple-agreement": f"closed form stops at total degree {order}, {label} at total degree {order - 1}"
    }


def test_a_residue_route_that_differs_fails_the_triple_agreement(monkeypatch, capsys):
    residue = verification.z_series_residue
    monkeypatch.setattr(verification, "z_series_residue", lambda f, N: _plus_one_at(residue(f, N), 2, 1))
    assert _fail_details(["--class", "todd", "--order", "8"], capsys) == {
        "triple-agreement": "first difference at x^1 y^1: closed form gives -1/2, residue extraction gives 1/2"
    }


def test_a_product_kernel_fault_reaches_the_residue_route(monkeypatch, capsys):
    # The residue route's Horner composition multiplies through the same
    # ``multiply_graded_rows`` as ``Series2.__mul__``, so one fault in it
    # leaves the residue route's series not divisible by (x - y) and
    # changes the products of ``log-exp-consistency``.
    monkeypatch.setattr(series, "multiply_graded_rows", _add_one(0, 2, 1)(series.multiply_graded_rows))
    assert _fail_details(["--class", "todd", "--order", "8"], capsys) == {
        "triple-agreement": "the residue extraction raised SeriesError: not divisible by (x - y)",
        "log-exp-consistency": "first difference at x^1 y^1: E(Z) gives -1, Z E(double sum of a_kl) gives -1/2",
    }


def test_a_quotient_kernel_fault_fails_the_triple_agreement(monkeypatch, capsys):
    # ``reciprocal`` and the log weights share one triangular division,
    # so one fault in it reaches the closed form through the reciprocal
    # in G and the fixed-point sum through the log of f.
    monkeypatch.setattr(series, "quotient_numerators", _add_one(0, 3)(series.quotient_numerators))
    assert "triple-agreement" in _fail_details(["--class", "todd", "--order", "8"], capsys)


def test_a_fault_in_the_G_that_z_closed_composes_fails_the_checks_that_read_z(monkeypatch, capsys):
    # ``big_g`` forms G by the one reciprocal of the closed form.  The
    # inverse reads g off the powers of F, and ``series`` binds its own
    # ``reciprocal``, so no round-trip check sees a wrong G: the checks
    # that compare Z must.  The class is given by its coefficients, so
    # no preset builder runs the faulty reciprocal.
    reciprocal = closedform.reciprocal

    def perturbed(s):
        good = reciprocal(s)
        values = list(good.coefficients)
        values[2] += 1
        return Series1(tuple(values), good.order, good.ring)

    monkeypatch.setattr(closedform, "reciprocal", perturbed)
    failed = _fail_details(["--class", "5/6,-1,-2", "--order", "8"], capsys)
    assert list(failed) == ["triple-agreement", "log-exp-consistency", "triviality-baseline"]


def _raise_a_2(tables):
    """A wrapper of a table builder that adds 1 to a_2."""

    def perturbed(f, N):
        a_k, table = tables(f, N)
        return {**a_k, 2: a_k[2] + 1}, table

    return perturbed


def _raise_pair_1_1(tables):
    """A wrapper of a table builder that adds 1 to a_(1,1)."""

    def perturbed(f, N):
        a_k, table = tables(f, N)
        entries = {**table.entries, (1, 1): table.entries[1, 1] + 1}
        return a_k, closedform.CoeffTable(table.kind, table.max_degree, entries)

    return perturbed


def test_an_even_a_k_fails_the_parity_check(monkeypatch, capsys):
    monkeypatch.setattr(verification, "tangent_tables", _raise_a_2(verification.tangent_tables))
    failed = _fail_details(["--class", "todd", "--order", "8"], capsys)
    assert set(failed) == {"triple-agreement", "parity"}
    assert failed["parity"] == "a_2 = 1 but even-index coefficients must vanish"


def test_an_odd_layer_of_z_fails_the_parity_check(monkeypatch, capsys):
    # x^2 y + x y^2 keeps Z symmetric
    z_closed = verification.z_closed
    monkeypatch.setattr(verification, "z_closed", lambda f, N: _plus_one_at(z_closed(f, N), 3, 1, 2))
    failed = _fail_details(["--class", "todd", "--order", "8"], capsys)
    assert "symmetry" not in failed
    assert failed["parity"] == "Z has a nonzero layer in odd total degree 3"


@pytest.mark.parametrize(
    "name, wrap, detail",
    [
        ("a_k_table", lambda a_k_table: lambda f, N: {**a_k_table(f, N), 2: Fr(1)},
         "trivial class single-index table is not (1, 0, 0, ...): {1: Fraction(1, 1), 2: Fraction(1, 1), "
         "3: Fraction(0, 1), 4: Fraction(0, 1)}"),
        ("taut_tables", _raise_a_2, "trivial class tautological single-index table is not (1, 0, 0, ...)"),
        ("taut_tables", _raise_pair_1_1, "trivial class tautological pair table has a nonzero entry"),
    ],
    ids=["single-index", "tautological-single-index", "tautological-pair"],
)
def test_a_wrong_trivial_table_fails_the_triviality_baseline(monkeypatch, capsys, name, wrap, detail):
    monkeypatch.setattr(verification, name, wrap(getattr(verification, name)))
    assert _fail_details(["--class", "todd", "--order", "8"], capsys) == {"triviality-baseline": detail}


def test_a_wrong_universal_table_fails_the_anchors(monkeypatch, capsys):
    to_universal = verification.to_universal

    def perturbed(table):
        out = to_universal(table)
        entries = {**out.entries, (1, 1): out.entries[1, 1] + 1}
        return closedform.CoeffTable(out.kind, out.max_degree, entries)

    monkeypatch.setattr(verification, "to_universal", perturbed)
    assert _fail_details(["--class", "chern-total", "--order", "8"], capsys) == {
        "universal-anchors": "universal a^(1,1) = 5/2, frozen anchor says 3/2"
    }


def test_verification_refuses_an_order_below_two():
    with pytest.raises(ValueError, match="verification needs order at least 2"):
        verification.verify_multiplicative(preset_class("todd", 3), "todd", 1)
    with pytest.raises(ValueError, match="verification needs order at least 2"):
        verification.verify_chern_character(1)
