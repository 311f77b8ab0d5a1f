"""The command-line reader: the flag table's fast path and argparse agree.

``cli._plain_args`` reads a well-formed ``COMMAND --flag VALUE ...`` line
without argparse and returns None for anything else, which ``cli.main``
hands to ``build_parser().parse_args``.  Here every line it reads must
give argparse's namespace, and the lines left to argparse must print what
they printed before the fast path existed: the pins below were recorded
from the parser as it was, at 80 columns, under Python 3.11 (argparse's
wording and wrapping change between Python versions).
"""

import contextlib
import io
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbfock import __version__, cli

PARSER = cli.build_parser()
SUBCOMMANDS = tuple(cli._COMMANDS)
FLAGS = tuple(sorted({flag[0] for _, _, flags in cli._COMMANDS.values() for flag in flags}))
ODD_FLAGS = ("--max", "--class=todd", "-h", "--", "--version")
VALUES = (
    "12", "-1", "1e3", "", " 7", "\u0661\u0662", "todd", "1,-1/2", "word",
    "json", "yaml", "tangent", "tautological", "chern-character", "theorem", "universal", "both",
)
TOKENS = SUBCOMMANDS + ("tabulate",) + FLAGS + ODD_FLAGS + VALUES


def argparse_namespace(argv):
    """``vars()`` of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _valid_values(kind):
    if isinstance(kind, tuple):
        return kind
    return ("12", " 7", "\u0661\u0662") if kind is int else ("todd", "1,-1/2", "")


@st.composite
def command_lines(draw):
    """A subcommand with some of its flags, each given a valid value or, on some
    lines, any value; then up to two tokens or flag-value pairs replace a token or
    are inserted."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    flags = [flag for flag in cli._COMMANDS[command][2] if draw(st.booleans()) or flag[4] and draw(st.booleans())]
    any_value = draw(st.booleans())
    argv = [command]
    for option, _, kind, *_ in draw(st.permutations(flags)):
        argv += [option, draw(st.sampled_from(_valid_values(kind) + (VALUES + ODD_FLAGS) * any_value))]
    pairs = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list)
    for _ in range(draw(st.integers(0, 2))):
        tokens = draw(st.one_of(st.sampled_from(TOKENS).map(lambda token: [token]), pairs))
        index = draw(st.integers(0, len(argv)))
        argv[index : index + draw(st.integers(0, 1))] = tokens
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["table", "--class", "todd", "--max-degree", " 7", "--basis", "universal"])
@example(["equivariant", "--level", "\u0661\u0662", "--class", "todd", "--format", "csv"])
@example(["equivariant", "--class", "todd", "--gamma", "-1", "--level", "2"])
@example(["table", "--class", "todd", "--max", "3"])
@example(["verify", "--class", "--order", "8"])
def test_the_fast_path_gives_argparse_namespace_or_declines(argv):
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == argparse_namespace(argv)


def test_main_reads_sys_argv_without_argparse(monkeypatch, capsys):
    def refuse():
        raise AssertionError("a well-formed command line reached argparse")

    monkeypatch.setattr(sys, "argv", ["hilbfock", "table", "--class", "todd", "--max-degree", "4", "--format", "csv"])
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("k,l,value\n1,0,1\n")


# (argv, exit code, stdout, stderr) of the lines argparse reads.
PINS = [
    (
        ('--help',),
        0,
        """\
usage: hilbfock [-h] [--version] {table,verify,equivariant} ...

Exact coefficient tables for characteristic classes of Hilbert schemes of
points.

positional arguments:
  {table,verify,equivariant}
    table               print coefficient tables
    verify              run the cross-check battery
    equivariant         fixed-point-basis coefficients at one level

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
        "",
    ),
    (
        ('table', '--help'),
        0,
        """\
usage: hilbfock table [-h] --class CLASS_SPEC [--max-degree MAX_DEGREE]
                      [--target {tangent,tautological,chern-character}]
                      [--basis {theorem,universal}]
                      [--format {json,csv,pretty}]

options:
  -h, --help            show this help message and exit
  --class CLASS_SPEC    preset name (trivial, chern-total, todd, l-genus,
                        a-hat, chern-character) or comma-separated rationals
                        c1,c2,... for f = 1 + c1 x + c2 x^2 + ...
  --max-degree MAX_DEGREE
                        largest total degree
  --target {tangent,tautological,chern-character}
                        which bundle family the table describes (default:
                        inferred from the class)
  --basis {theorem,universal}
                        raw coefficients or the operator-basis conversion
  --format {json,csv,pretty}
""",
        "",
    ),
    (
        ('verify', '--help'),
        0,
        """\
usage: hilbfock verify [-h] --class CLASS_SPEC [--order ORDER]

options:
  -h, --help          show this help message and exit
  --class CLASS_SPEC  preset name (trivial, chern-total, todd, l-genus, a-hat,
                      chern-character) or comma-separated rationals c1,c2,...
                      for f = 1 + c1 x + c2 x^2 + ...
  --order ORDER       total degree to check through
""",
        "",
    ),
    (
        ('equivariant', '--help'),
        0,
        """\
usage: hilbfock equivariant [-h] --class CLASS_SPEC [--gamma GAMMA] --level
                            LEVEL [--bound BOUND] [--format {json,csv,pretty}]

options:
  -h, --help            show this help message and exit
  --class CLASS_SPEC    preset name (trivial, chern-total, todd, l-genus,
                        a-hat, chern-character) or comma-separated rationals
                        c1,c2,... for f = 1 + c1 x + c2 x^2 + ...
  --gamma GAMMA         twist of the line bundle
  --level LEVEL         number of points
  --bound BOUND         refuse levels above this (soft budget)
  --format {json,csv,pretty}
""",
        "",
    ),
    (
        ('--version',),
        0,
        f"hilbfock {__version__}\n",
        "",
    ),
    (
        (),
        2,
        "",
        """\
usage: hilbfock [-h] [--version] {table,verify,equivariant} ...
hilbfock: error: the following arguments are required: command
""",
    ),
    (
        ('tabulate',),
        2,
        "",
        """\
usage: hilbfock [-h] [--version] {table,verify,equivariant} ...
hilbfock: error: argument command: invalid choice: 'tabulate' (choose from 'table', 'verify', 'equivariant')
""",
    ),
    (
        ('table',),
        2,
        "",
        """\
usage: hilbfock table [-h] --class CLASS_SPEC [--max-degree MAX_DEGREE]
                      [--target {tangent,tautological,chern-character}]
                      [--basis {theorem,universal}]
                      [--format {json,csv,pretty}]
hilbfock table: error: the following arguments are required: --class
""",
    ),
    (
        ('table', '--class', 'todd', '--max-degree', 'x'),
        2,
        "",
        """\
usage: hilbfock table [-h] --class CLASS_SPEC [--max-degree MAX_DEGREE]
                      [--target {tangent,tautological,chern-character}]
                      [--basis {theorem,universal}]
                      [--format {json,csv,pretty}]
hilbfock table: error: argument --max-degree: invalid int value: 'x'
""",
    ),
    (
        ('table', '--class', 'todd', '--format', 'yaml'),
        2,
        "",
        """\
usage: hilbfock table [-h] --class CLASS_SPEC [--max-degree MAX_DEGREE]
                      [--target {tangent,tautological,chern-character}]
                      [--basis {theorem,universal}]
                      [--format {json,csv,pretty}]
hilbfock table: error: argument --format: invalid choice: 'yaml' (choose from 'json', 'csv', 'pretty')
""",
    ),
    (
        ('equivariant', '--class', 'todd', '--gamma', '-1', '--level', '2'),
        0,
        """\
class todd, twist gamma=-1, level 2

[(2), ()]    -5/24
[(1,1), ()]  -5/24
[(1), (1)]   -5/6
[(), (2)]    49/24
[(), (1,1)]  -43/12
""",
        "",
    ),
    (
        ('table', '--class', 'todd', '--max', '3'),
        0,
        """\
class todd, table kind theorem_a_kl, total degree <= 3

k    1      3
a_k  1  -1/36

(k,l)  (1,1)
a_kl    -1/4

zero entries suppressed; use --format json or csv for the dense table
""",
        "",
    ),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's wording is of Python 3.11")
@pytest.mark.parametrize("argv, code, out, err", PINS, ids=[" ".join(pin[0]) or "no arguments" for pin in PINS])
def test_argparse_output_is_unchanged(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(list(argv)) == code
    assert capsys.readouterr() == (out, err)
