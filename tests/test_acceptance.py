"""Acceptance gate: one check per shipped guarantee, with budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL report per criterion.  Budgets are wall-clock seconds on a
single core; the computations are exact, so the only way to fail a
budget without failing correctness is a performance regression.
"""

import json
import time
from fractions import Fraction as Fr
from pathlib import Path

from hilbfock.cli import main
from hilbfock.closedform import (
    a_kl_table,
    big_g,
    chern_character_tables,
    corollary_via_dual,
    preset_class,
    small_g,
    taut_tables,
    z_closed,
)
from hilbfock.localisation import (
    hook_coefficient,
    level_pairs,
    pair_coefficient,
    z_series_hookform,
    z_series_residue,
)
from hilbfock.series import (
    Series1,
    compose,
    series_log,
)

from exp_oracle import series_exp
from fraction_kernels import add, identity, in_x, one, scale
from lagrange_good import lagrange_good_extract

README = Path(__file__).resolve().parents[1] / "README.md"


def _report(number, problems, seconds, budget, label):
    ok = not problems and seconds < budget
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} {label} ({seconds:.2f}s, budget {budget}s)")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:5])
    assert seconds < budget, f"criterion {number}: {seconds:.2f}s over budget {budget}s"


def _cli_universal_table(capsys, name):
    code = main(
        [
            "table",
            "--class",
            name,
            "--basis",
            "universal",
            "--max-degree",
            "6",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    return {(row["k"], row["l"]): Fr(row["value"]) for row in payload["a_kl"]}


def test_criterion_1_universal_tables_through_degree_six(capsys):
    expected = {
        "chern-total": {
            (1, 1): Fr(3, 2),
            (3, 1): Fr(-1),
            (2, 2): Fr(-7, 4),
            (5, 1): Fr(2),
            (4, 2): Fr(2),
            (3, 3): Fr(3),
        },
        "chern-character": {
            (1, 1): Fr(-3, 2),
            (3, 1): Fr(-5, 12),
            (2, 2): Fr(5, 24),
            (5, 1): Fr(-7, 360),
            (4, 2): Fr(7, 180),
            (3, 3): Fr(-7, 240),
        },
    }
    start = time.perf_counter()
    problems = []
    for name, wanted in expected.items():
        got = _cli_universal_table(capsys, name)
        for pair, value in wanted.items():
            if got.get(pair) != value:
                problems.append(f"{name} {pair}: got {got.get(pair)}, want {value}")
        for pair, value in got.items():
            if sum(pair) % 2 and value != 0:
                problems.append(f"{name} {pair}: odd-degree entry {value} nonzero")
    elapsed = time.perf_counter() - start
    # suppress the CLI output captured above so only the report line prints
    capsys.readouterr()
    _report(1, problems, elapsed, 5, "universal tables for both degree-6 references")


def test_criterion_2_three_routes_agree_through_degree_ten():
    N = 10
    classes = {
        "trivial": one(N + 2),
        "chern-total": Series1([1, 1], N + 2),
        "todd": preset_class("todd", N + 2),
    }
    start = time.perf_counter()
    problems = []
    for name, f in classes.items():
        closed = z_closed(f, N)
        hooked = z_series_hookform(f, N)
        residue = z_series_residue(f, N)
        for d in range(N + 1):
            if closed.homogeneous(d) != hooked.homogeneous(d):
                problems.append(f"{name}: closed vs hook differ in degree {d}")
            if closed.homogeneous(d) != residue.homogeneous(d):
                problems.append(f"{name}: closed vs residue differ in degree {d}")
    elapsed = time.perf_counter() - start
    _report(2, problems, elapsed, 60, "closed form, hook sum and residue sum to degree 10")


def test_criterion_3_dual_number_route_matches_factorial_formulas():
    start = time.perf_counter()
    problems = []
    for n in range(2, 13, 2):
        sliced = corollary_via_dual(n)
        _, direct = chern_character_tables(n)
        for (k, l), value in sliced.entries.items():
            if value != direct.value(k, l):
                problems.append(f"n={n} ({k},{l}): dual {value} vs direct {direct.value(k, l)}")
    elapsed = time.perf_counter() - start
    _report(3, problems, elapsed, 5, "square-zero derivation of the Chern character tables")


def test_criterion_4_hook_form_is_the_gamma_two_specialisation():
    classes = {
        "chern-total": Series1([1, 1], 8),
        "todd": preset_class("todd", 8),
    }
    start = time.perf_counter()
    problems = []
    for name, f in classes.items():
        for n in range(9):
            for pair in level_pairs(n):
                general = pair_coefficient(f, pair, 2)
                hooks = hook_coefficient(f, pair)
                if general != hooks:
                    problems.append(f"{name} {pair}: general {general} vs hooks {hooks}")
    elapsed = time.perf_counter() - start
    _report(4, problems, elapsed, 30, "pairwise gamma=2 reduction through level 8")


def _naive_univariate_expansion(g, f, max_k):
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


def test_criterion_5_structural_battery():
    start = time.perf_counter()
    problems = []

    # compositional inverses really invert, on every preset
    for name in ("chern-total", "todd", "l-genus", "a-hat"):
        f = preset_class(name, 9)
        G = big_g(f)
        g = small_g(f, 9)
        if compose(G, in_x(g)) != in_x(identity(9)):
            problems.append(f"{name}: G(g(x)) is not the identity")

    # exp and log cancel both ways
    body = Series1([0, 1, Fr(-1, 2), Fr(1, 3), 0, 5], 8)
    if series_log(series_exp(body)) != body:
        problems.append("log(exp(s)) != s")
    unit = add(one(8), body)
    if series_exp(series_log(unit)) != unit:
        problems.append("exp(log(1 + s)) != 1 + s")

    # multivariate coefficient extraction agrees with forward substitution
    f = Series1([0, 1, 2, Fr(-1, 2), 0, 1, 0, 0, 3, -2], 9)
    g = Series1([0, 3, 0, 1, Fr(2, 7), 0, -4, 1, 1, 0], 9)
    naive = _naive_univariate_expansion(g, f, 8)
    for k in range(1, 9):
        extracted = lagrange_good_extract(g, [f], k)
        if extracted != naive[k]:
            problems.append(f"extraction at k={k}: {extracted} vs naive {naive[k]}")

    # parity and symmetry of the generating series
    todd = preset_class("todd", 7)
    Z = z_closed(todd, 6)
    if Z != Z.swap():
        problems.append("Z is not symmetric in x and y")
    for d in (1, 3, 5):
        if any(value != 0 for value in Z.homogeneous(d)):
            problems.append(f"Z has a nonzero odd-degree slab at {d}")

    # the trivial class gives trivial tables in both table families
    trivial = one(7)
    if any(value != 0 for value in a_kl_table(trivial, 6).entries.values()):
        problems.append("trivial class: tangent pair table not identically zero")
    taut_a_k, taut_table = taut_tables(trivial, 6)
    if any(value != 0 for value in taut_table.entries.values()):
        problems.append("trivial class: tautological pair table not identically zero")
    if any(value != (1 if k == 1 else 0) for k, value in taut_a_k.items()):
        problems.append("trivial class: tautological a_k not the bare a_1 = 1")

    elapsed = time.perf_counter() - start
    _report(5, problems, elapsed, 30, "inversion, exp/log, extraction, parity, triviality")


def test_criterion_6_scope_disclosure_is_published():
    start = time.perf_counter()
    problems = []
    text = README.read_text(encoding="utf-8") if README.exists() else ""
    if "## Limitations" not in text:
        problems.append("README has no Limitations section")
    for needle in (
        "canonical-class and Euler-class",
        "length three or more",
        "property-based checks",
    ):
        if needle not in text:
            problems.append(f"README limitation missing: {needle!r}")
    elapsed = time.perf_counter() - start
    _report(6, problems, elapsed, 5, "out-of-scope coefficients disclosed in the README")
