import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from hilbfock import cli
from hilbfock.closedform import PRESET_NAMES
from hilbfock.cli import MAX_TABLE_DEGREE, MAX_VERIFY_ORDER, main, parse_class_spec, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_values(payload):
    return {(row["k"], row["l"]): row["value"] for row in payload["a_kl"]}


# ----------------------------------------------------------- argument parsing


def test_parse_presets_and_custom_lists():
    assert parse_class_spec("todd").preset == "todd"
    assert parse_class_spec("chern-character").is_chern_character
    spec = parse_class_spec("1,-1/2")
    assert spec.preset is None
    assert spec.coefficients == (Fr(1), Fr(-1, 2))


def test_parse_rejects_garbage():
    with pytest.raises(UsageError, match="cannot parse class"):
        parse_class_spec("gauss-bonnet")
    with pytest.raises(UsageError, match="cannot parse class"):
        parse_class_spec("1,,2")
    with pytest.raises(UsageError, match=r"cannot parse class '1/0': the denominator of '1/0' is zero"):
        parse_class_spec("1/0")
    with pytest.raises(UsageError, match=r"class '2,-1/0,3': the denominator of '-1/0' is zero"):
        parse_class_spec("2,-1/0,3")


def test_digit_group_underscores_are_refused():
    # Fraction reads "2_0" as 20 from Python 3.11 on and refuses it on
    # 3.10, so the grammar refuses it on every version
    with pytest.raises(UsageError, match="cannot parse class '1.5,2_0': expected a preset name"):
        parse_class_spec("1.5,2_0")


def test_a_zero_denominator_exits_2_and_names_the_piece(capsys):
    code, out, err = run(capsys, "table", "--class", "1,1/0", "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert "the denominator of '1/0' is zero" in err


def test_a_negative_first_coefficient_needs_the_equals_form(capsys):
    # argparse takes "-1,2" after a space for an option, as the README says
    code, out, err = run(capsys, "table", "--class", "-1,2", "--max-degree", "3")
    assert code == 2
    assert out == ""
    assert err.endswith("hilbfock table: error: argument --class: expected one argument\n")
    assert run(capsys, "table", "--class=-1,2", "--max-degree", "3")[0] == 0


# ----------------------------------------------------------- table command


def test_universal_chern_character_table(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--class",
        "chern-character",
        "--basis",
        "universal",
        "--max-degree",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["a_k", "a_kl", "class", "max_degree"]
    assert payload["class"] == "chern-character"
    assert payload["max_degree"] == 6
    assert payload["a_k"] == ["2", "0", "1/3", "0", "1/60", "0"]
    values = table_values(payload)
    assert values[(1, 1)] == "-3/2"
    assert values[(3, 1)] == "-5/12"
    assert values[(2, 2)] == "5/24"
    assert values[(5, 1)] == "-7/360"
    assert values[(4, 2)] == "7/180"
    assert values[(3, 3)] == "-7/240"


def test_universal_chern_total_table(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--class",
        "chern-total",
        "--basis",
        "universal",
        "--max-degree",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    values = table_values(json.loads(out))
    assert values[(1, 1)] == "3/2"
    assert values[(3, 1)] == "-1"
    assert values[(2, 2)] == "-7/4"
    assert values[(5, 1)] == "2"
    assert values[(4, 2)] == "2"
    assert values[(3, 3)] == "3"


def test_trivial_class_table_is_dense_zeros(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--class",
        "trivial",
        "--max-degree",
        "8",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    # g is tangent to the identity, so a_1 = 1 survives even for f = 1
    assert payload["a_k"] == ["1"] + ["0"] * 7
    rows = payload["a_kl"]
    # every admissible k >= l >= 1 with k + l <= 8 appears, all zero
    assert len(rows) == sum(total // 2 for total in range(2, 9))
    assert all(row["value"] == "0" for row in rows)


def test_custom_coefficients_match_preset(capsys):
    _, preset_out, _ = run(
        capsys, "table", "--class", "chern-total", "--max-degree", "6", "--format", "json"
    )
    _, custom_out, _ = run(
        capsys, "table", "--class", "1", "--max-degree", "6", "--format", "json"
    )
    preset_payload = json.loads(preset_out)
    custom_payload = json.loads(custom_out)
    assert custom_payload["class"] == "1"
    assert custom_payload["a_k"] == preset_payload["a_k"]
    assert custom_payload["a_kl"] == preset_payload["a_kl"]


def test_csv_table_shape(capsys):
    code, out, _ = run(
        capsys, "table", "--class", "todd", "--max-degree", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,l,value"
    # 4 single-index rows written with l = 0, plus the dense pair rows
    pair_rows = sum(total // 2 for total in range(2, 5))
    assert len(lines) == 1 + 4 + pair_rows
    assert "2,0,0" in lines
    # a_{1,1} = [x^2] log g' = -1/4 for the Todd class
    assert "1,1,-1/4" in lines


def test_pretty_table_suppresses_zeros(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--class",
        "chern-total",
        "--basis",
        "universal",
        "--max-degree",
        "6",
    )
    assert code == 0
    assert "-7/4" in out
    assert "(2,2)" in out
    assert "zero entries suppressed" in out


def test_table_output_is_deterministic(capsys):
    args = ("table", "--class", "todd", "--max-degree", "8", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_tautological_table(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--class",
        "todd",
        "--target",
        "tautological",
        "--max-degree",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    values = table_values(json.loads(out))
    assert values[(1, 1)] == "1/12"
    assert values[(2, 1)] == "-1/24"


# ----------------------------------------------------------- table errors


def test_table_degree_limits(capsys):
    code, _, err = run(capsys, "table", "--class", "todd", "--max-degree", "1")
    assert code == 2
    assert "at least 2" in err
    code, _, err = run(capsys, "table", "--class", "todd", "--max-degree", str(2 * MAX_TABLE_DEGREE))
    assert code == 3
    assert "exceeds the limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--class", "todd"),
        ("--class", "todd", "--target", "tautological"),
        ("--class", "chern-character"),
    ],
)
def test_table_degree_cap_plus_one_is_refused(capsys, argv):
    code, out, err = run(capsys, "table", *argv, "--max-degree", str(MAX_TABLE_DEGREE + 1))
    assert code == 3
    assert out == ""
    assert f"exceeds the limit of {MAX_TABLE_DEGREE}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--class", "trivial"),
        ("--class", "trivial", "--target", "tautological"),
        ("--class", "chern-character"),
    ],
)
def test_cheap_class_at_the_degree_cap_succeeds(capsys, argv):
    code, out, _ = run(
        capsys, "table", *argv, "--max-degree", str(MAX_TABLE_DEGREE), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["a_k"]) == MAX_TABLE_DEGREE
    assert max(row["k"] + row["l"] for row in payload["a_kl"]) == MAX_TABLE_DEGREE


def test_large_height_class_table(capsys):
    # f = 1 + x/10^40: G = z / (1 - z^2/10^80), so a_3 = g_3 / 3 = -1/(3*10^80)
    code, out, _ = run(
        capsys, "table", "--class", "1/1" + "0" * 40, "--max-degree", "12", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a_k"][:3] == ["1", "0", "-1/3" + "0" * 80]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_values_longer_than_the_int_digit_limit_are_printed(capsys, fmt):
    # f = 1 + 10^300 x: at degree 16 some entries have more digits than
    # the interpreter's int-to-str limit, which output must not hit
    big = "1" + "0" * 300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "table", "--class", big, "--max-degree", "16", "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    a_k, table = cli.tangent_tables(cli.class_series(parse_class_spec(big), 17), 16)
    values = list(a_k.values()) + list(table.entries.values())
    assert max(abs(v.numerator) for v in values).bit_length() > limit * 3.33
    sys.set_int_max_str_digits(0)
    try:
        expected = {str(v) for v in values if v}
    finally:
        sys.set_int_max_str_digits(limit)
    assert all(text in out for text in expected)


@pytest.mark.parametrize("command", ["table", "verify", "equivariant"])
def test_class_digits_beyond_the_int_digit_limit_are_refused(capsys, command):
    # --class is parsed under the interpreter's limit; only computing and
    # printing run without it
    limit = sys.get_int_max_str_digits()
    huge = "1" + "0" * limit
    level = ["--level", "1"] if command == "equivariant" else []
    code, out, err = run(capsys, command, "--class", huge, *level)
    assert (code, out) == (2, "")
    assert "cannot parse class" in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("class_spec", ["1e20000", "2,1E3", "1.5e-2", "1e5/2"])
def test_exponent_notation_is_refused(capsys, monkeypatch, class_spec):
    parsed = []
    monkeypatch.setattr(cli, "Fraction", lambda piece: parsed.append(piece) or Fr(piece))
    code, out, err = run(capsys, "table", "--class", class_spec, "--max-degree", "12")
    assert (code, out) == (2, "")
    assert "exponent notation" in err
    assert "cannot parse class" in err
    assert all("e" not in piece.lower() for piece in parsed)


@pytest.mark.parametrize("class_spec", ["hello", "tod", "l-genuss"])
def test_misspelt_presets_are_told_the_presets(capsys, class_spec):
    code, out, err = run(capsys, "table", "--class", class_spec, "--max-degree", "12")
    assert (code, out) == (2, "")
    assert "cannot parse class" in err
    assert "exponent notation" not in err
    assert all(name in err for name in (*PRESET_NAMES, "chern-character"))


def test_plain_decimals_are_accepted():
    assert parse_class_spec("0.5,-1.25,3").coefficients == (Fr(1, 2), Fr(-5, 4), Fr(3))


def test_target_and_class_compatibility(capsys):
    code, _, err = run(
        capsys,
        "table",
        "--class",
        "todd",
        "--target",
        "chern-character",
        "--max-degree",
        "4",
    )
    assert code == 2
    assert "requires --class chern-character" in err

    code, _, err = run(
        capsys,
        "table",
        "--class",
        "chern-character",
        "--target",
        "tangent",
        "--max-degree",
        "4",
    )
    assert code == 2
    assert "only supports --target chern-character" in err


def test_tautological_tables_have_no_universal_basis(capsys):
    code, _, err = run(
        capsys,
        "table",
        "--class",
        "todd",
        "--target",
        "tautological",
        "--basis",
        "universal",
        "--max-degree",
        "4",
    )
    assert code == 2
    assert "no universal form" in err


# ----------------------------------------------------------- verify command


def test_verify_passes_for_chern_total(capsys):
    code, out, _ = run(capsys, "verify", "--class", "chern-total", "--order", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "triple-agreement" in out
    assert "universal-anchors" in out
    assert out.strip().splitlines()[-1].endswith("(class chern-total, order 4)")


def test_verify_passes_for_chern_character(capsys):
    code, out, _ = run(capsys, "verify", "--class", "chern-character", "--order", "6")
    assert code == 0
    assert "FAIL" not in out


def test_verify_order_limits(capsys):
    code, _, err = run(capsys, "verify", "--class", "todd", "--order", "1")
    assert code == 2
    assert "at least 2" in err
    code, _, err = run(capsys, "verify", "--class", "todd", "--order", str(MAX_VERIFY_ORDER + 1))
    assert code == 3
    assert f"exceeds the limit of {MAX_VERIFY_ORDER}" in err


def test_verify_at_the_order_cap_passes(capsys):
    code, out, _ = run(capsys, "verify", "--class", "chern-total", "--order", str(MAX_VERIFY_ORDER))
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1] == f"8/8 checks passed (class chern-total, order {MAX_VERIFY_ORDER})"


def test_verify_exits_one_and_names_the_failing_pair(capsys, monkeypatch):
    from hilbfock import verification
    from hilbfock.localisation import hook_coefficient, level_pairs

    skewed_pair = level_pairs(3)[1]

    def skewed(f, pair):
        value = hook_coefficient(f, pair)
        return value + 1 if pair == skewed_pair else value

    monkeypatch.setattr(verification, "hook_coefficient", skewed)
    code, out, _ = run(capsys, "verify", "--class", "todd", "--order", "6")
    assert code == 1
    lines = out.splitlines()
    failing = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert len(failing) == 1
    assert lines[failing[0]].startswith("FAIL  fixed-point-reduction")
    detail = lines[failing[0] + 1].strip()
    assert detail.startswith(f"pair {skewed_pair}: general twist-2 coefficient")
    assert lines[-1] == "6/7 checks passed (class todd, order 6)"


def test_a_failing_check_names_values_beyond_the_int_digit_limit(capsys, monkeypatch):
    from hilbfock import verification
    from hilbfock.localisation import hook_coefficient, level_pairs

    skewed_pair, huge = level_pairs(3)[1], 10**5000

    def skewed(f, pair):
        value = hook_coefficient(f, pair)
        return value + huge if pair == skewed_pair else value

    monkeypatch.setattr(verification, "hook_coefficient", skewed)
    code, out, err = run(capsys, "verify", "--class", "todd", "--order", "6")
    assert (code, err) == (1, "")
    detail = next(line for line in out.splitlines() if line.startswith("      pair"))
    assert len(detail) > 5000


# ----------------------------------------------------------- equivariant command


def test_equivariant_vacuum_level(capsys):
    code, out, _ = run(
        capsys,
        "equivariant",
        "--class",
        "chern-total",
        "--level",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 2
    assert payload["entries"] == [{"lambda0": [], "lambda1": [], "value": "1"}]


def test_equivariant_twist_three_level_one(capsys):
    code, out, _ = run(
        capsys,
        "equivariant",
        "--class",
        "chern-total",
        "--gamma",
        "3",
        "--level",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"lambda0": [1], "lambda1": [], "value": "0"},
        {"lambda0": [], "lambda1": [1], "value": "1"},
    ]


def test_equivariant_csv_quotes_partition_tuples(capsys):
    code, out, _ = run(
        capsys,
        "equivariant",
        "--class",
        "todd",
        "--gamma",
        "3",
        "--level",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda0,lambda1,value"
    assert len(lines) == 6
    assert any(line.startswith('"(1,1)"') for line in lines)


def test_equivariant_pretty_output(capsys):
    code, out, _ = run(
        capsys, "equivariant", "--class", "chern-total", "--gamma", "3", "--level", "1"
    )
    assert code == 0
    assert "twist gamma=3, level 1" in out
    assert "[(1), ()]" in out


def test_equivariant_level_budget(capsys):
    code, _, err = run(capsys, "equivariant", "--class", "todd", "--level", "12")
    assert code == 3
    assert "raise --bound" in err

    code, _, err = run(
        capsys,
        "equivariant",
        "--class",
        "todd",
        "--level",
        "12",
        "--bound",
        str(cli.MAX_EQUIVARIANT_LEVEL + 1),
    )
    assert code == 3
    assert "hard limit" in err

    code, _, err = run(capsys, "equivariant", "--class", "todd", "--level", "-1")
    assert code == 2
    assert "nonnegative" in err

    code, _, err = run(
        capsys, "equivariant", "--class", "todd", "--level", "0", "--bound", "-1"
    )
    assert code == 2
    assert "--bound must be nonnegative" in err


def test_equivariant_rejects_chern_character(capsys):
    code, _, err = run(
        capsys, "equivariant", "--class", "chern-character", "--level", "2"
    )
    assert code == 2
    assert "not one" in err


def test_equivariant_degenerate_twist(capsys):
    code, _, err = run(
        capsys, "equivariant", "--class", "chern-total", "--gamma", "0", "--level", "2"
    )
    assert code == 2
    assert "degenerate fixed-point denominator" in err


# ----------------------------------------------------------- top-level behavior


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("hilbfock ")


def test_no_arguments_is_a_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(capsys, "tabulate")[0] == 2


@pytest.mark.parametrize("class_spec", ["pontryagin", "1/10^40", "1,,2"])
@pytest.mark.parametrize(
    "command",
    [("table", "--max-degree", "4"), ("verify", "--order", "4"), ("equivariant", "--level", "2")],
    ids=lambda command: command[0],
)
def test_unparsable_class_exits_two(capsys, command, class_spec):
    code, out, err = run(capsys, *command, "--class", class_spec)
    assert code == 2
    assert out == ""
    assert "cannot parse class" in err


def _modules_after(*argv, code=0):
    """Modules loaded by one CLI run, which exits with code, in a fresh
    interpreter without site hooks.

    ``-S`` keeps site-packages hooks from preloading modules, so the set
    is what the package itself imports.
    """
    script = (
        "import sys\n"
        "from hilbfock.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    source = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source)},
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    return set(result.stderr.split())


def test_cli_imports_only_what_its_output_uses():
    # argparse brings gettext and locale; a well-formed command line needs none of them.
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    csv_run = _modules_after("equivariant", "--class", "todd", "--level", "3", "--format", "csv")
    assert "csv" in csv_run
    assert not (unwanted | {"json"}) & csv_run
    json_run = _modules_after("table", "--class", "todd", "--max-degree", "6", "--format", "json")
    assert "json" in json_run
    assert not (unwanted | {"csv"}) & json_run
    verify_run = _modules_after("verify", "--class", "todd", "--order", "4")
    assert not (unwanted | {"csv", "json"}) & verify_run
    assert "argparse" in _modules_after("table", "--help")
    assert "argparse" in _modules_after("table", "--class", "todd", "--format", "yaml", code=2)
