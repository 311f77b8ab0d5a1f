"""Command-line front end.

Three subcommands:

* ``table``   -- coefficient tables for a chosen class, as JSON, CSV or
  an aligned text table.
* ``verify``  -- run the cross-check battery and report PASS/FAIL per
  check with timings.
* ``equivariant`` -- fixed-point-basis coefficients at a chosen level
  and twist, keyed by pairs of partitions.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource limit exceeded.  All rational values are printed exactly,
as integer or "p/q" strings, never as floats.

A command line ``COMMAND --flag VALUE ...`` is read straight from a flag
table; argparse, whose import and parsers cost ``--version`` about 4.5 ms
(median of 41 alternated fresh-process runs), is loaded only for help,
``--version``, usage errors and other spellings of a command.

``python -m hilbfock.cli`` and the installed ``hilbfock`` script both
call ``run``: it calls ``main``, flushes stdout and stderr and ends the
process with ``os._exit``, so that the interpreter does not free every
module and object one by one once the output is written, which costs
more than the math of a small table.  The package holds no open file,
thread, temporary file or ``atexit`` handler, so the two streams are all
that teardown would finish.  If a flush raises, ``run`` exits through
``sys.exit`` and the interpreter reports the stream as it always did; an
exception out of ``main`` is left to the interpreter too.  ``main``
itself returns the exit code, for tests and callers in process.
"""

from __future__ import annotations

import io
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NoReturn

if TYPE_CHECKING:
    import argparse

# json and csv are imported inside the output branches that use them:
# every run pays for its imports, one run needs at most one of the two,
# and verify needs neither.

from . import __version__
from .closedform import (
    CoeffTable,
    PRESET_NAMES,
    chern_character_tables,
    preset_class,
    tangent_tables,
    taut_tables,
    to_universal,
)
from .localisation import equivariant_class_coeffs
from .rings import Frozen
from .series import InternalCheckError, Series1
from .verification import verify_chern_character, verify_multiplicative

MAX_TABLE_DEGREE = 104
MAX_VERIFY_ORDER = 29
MAX_EQUIVARIANT_LEVEL = 18
DEFAULT_EQUIVARIANT_BOUND = 10


class UsageError(Exception):
    """Bad flags or an ill-posed request; maps to exit code 2."""


class ResourceLimitError(Exception):
    """Request beyond the configured budget; maps to exit code 3."""


class ClassSpec(Frozen):
    """A parsed --class argument.

    Either one of the named presets (``preset`` is set) or an explicit
    coefficient list c1, c2, ... defining f = 1 + c1 x + c2 x^2 + ...
    (``coefficients`` is set); the other field is None.  ``label`` is
    what the user typed.
    """

    __slots__ = ("label", "preset", "coefficients")

    @property
    def is_chern_character(self) -> bool:
        return self.preset == "chern-character"


def parse_class_spec(text: str) -> ClassSpec:
    cleaned = text.strip()
    if cleaned in PRESET_NAMES or cleaned == "chern-character":
        return ClassSpec(cleaned, cleaned, None)
    parts = [piece.strip() for piece in cleaned.split(",")]
    # A number has a digit and nothing but digits, signs, '.', '/' and an exponent.
    if not all(re.fullmatch(r"[-+./\deE]*\d[-+./\deE]*", piece) for piece in parts):
        raise UsageError(
            f"cannot parse class {text!r}: expected a preset name "
            f"({', '.join(PRESET_NAMES)}, chern-character) or a comma-separated "
            f"list of rationals like 1,-1/2"
        )
    coefficients = []
    for piece in parts:
        if "e" in piece or "E" in piece:
            # 1e20000 is six characters but a 20001-digit integer, past the
            # interpreter's limit on the digits of a decimal integer.
            raise UsageError(
                f"cannot parse class {text!r}: exponent notation in {piece!r} is not "
                f"accepted; write the number as an integer, a decimal or p/q"
            )
        try:
            coefficients.append(Fraction(piece))
        except ValueError as exc:
            raise UsageError(f"cannot parse class {text!r}: {exc}") from None
        except ZeroDivisionError:
            raise UsageError(f"cannot parse class {text!r}: the denominator of {piece!r} is zero") from None
    return ClassSpec(cleaned, None, tuple(coefficients))


def class_series(spec: ClassSpec, order: int) -> Series1:
    """The defining series of a class, truncated at the requested order."""
    if spec.preset is not None:
        return preset_class(spec.preset, order)
    return Series1((Fraction(1),) + spec.coefficients, order)


def _unlimited_digits(command: Callable[..., int], *args: Any) -> int:
    """``command(*args)`` with no limit on the digits of an int turned to text.

    Exact values may have more digits than the interpreter's limit on
    int-to-str conversion (4300 by default), which guards the parsing of
    untrusted decimal input: ``main`` parses the arguments and ``--class``
    with the limit, then computes and prints under this.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return command(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _ordered_pairs(table: CoeffTable) -> list[tuple[int, int]]:
    """Table indices ascending by total degree, then descending k."""
    return sorted(table.entries, key=lambda pair: (pair[0] + pair[1], -pair[0]))


def _json_text(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _table_json(label: str, a_k: dict[int, Fraction], table: CoeffTable) -> str:
    payload = {
        "class": label,
        "max_degree": table.max_degree,
        "a_k": [str(value) for value in a_k.values()],
        "a_kl": [
            {"k": k, "l": l, "value": str(table.entries[(k, l)])}
            for k, l in _ordered_pairs(table)
        ],
    }
    return _json_text(payload)


def _table_csv(a_k: dict[int, Fraction], table: CoeffTable) -> str:
    rows = [(k, 0, value) for k, value in a_k.items()]
    rows.extend((k, l, value) for (k, l), value in table.entries.items())
    rows.sort(key=lambda row: (row[0] + row[1], -row[0]))
    return _csv_text(["k", "l", "value"], [[k, l, str(value)] for k, l, value in rows])


def _aligned_rows(columns: list[tuple[str, str]], names: tuple[str, str]) -> str:
    """Two lines, headed by the two names, with each (index, value)
    column right-aligned."""
    widths = [max(len(index), len(value)) for index, value in columns]
    label_width = max(len(names[0]), len(names[1]))
    lines = []
    for name, cells in zip(names, zip(*columns)):
        padded = (cell.rjust(w) for cell, w in zip(cells, widths))
        lines.append(name.ljust(label_width) + "  " + "  ".join(padded) + "\n")
    return "".join(lines)


def _table_pretty(label: str, a_k: dict[int, Fraction], table: CoeffTable) -> str:
    lines = [f"class {label}, table kind {table.kind}, total degree <= {table.max_degree}", ""]
    blocks = (
        (("k", "a_k"), [(str(k), value) for k, value in a_k.items()]),
        (("(k,l)", "a_kl"), [(f"({k},{l})", table.entries[k, l]) for k, l in _ordered_pairs(table)]),
    )
    for names, cells in blocks:
        kept = [(index, str(value)) for index, value in cells if value != 0]
        lines.append(_aligned_rows(kept, names) if kept else f"{names[1]}: all zero\n")
    lines.append("zero entries suppressed; use --format json or csv for the dense table\n")
    return "\n".join(lines)


def cmd_table(args: argparse.Namespace, spec: ClassSpec) -> int:
    max_degree = args.max_degree
    if max_degree < 2:
        raise UsageError("--max-degree must be at least 2")
    if max_degree > MAX_TABLE_DEGREE:
        raise ResourceLimitError(
            f"--max-degree {max_degree} exceeds the limit of {MAX_TABLE_DEGREE}"
        )

    target = args.target
    if target is None:
        target = "chern-character" if spec.is_chern_character else "tangent"
    if spec.is_chern_character and target != "chern-character":
        raise UsageError("the chern-character class only supports --target chern-character")
    if target == "chern-character" and not spec.is_chern_character:
        raise UsageError("--target chern-character requires --class chern-character")
    if target == "tautological" and args.basis == "universal":
        raise UsageError("tautological tables have no universal form")

    if target == "chern-character":
        a_k, table = chern_character_tables(max_degree)
    elif target == "tautological":
        a_k, table = taut_tables(class_series(spec, max_degree + 1), max_degree)
    else:
        a_k, table = tangent_tables(class_series(spec, max_degree + 1), max_degree)
    if args.basis == "universal":
        table = to_universal(table)

    if args.format == "json":
        text = _table_json(spec.label, a_k, table)
    elif args.format == "csv":
        text = _table_csv(a_k, table)
    else:
        text = _table_pretty(spec.label, a_k, table)
    sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace, spec: ClassSpec) -> int:
    order = args.order
    if order < 2:
        raise UsageError("--order must be at least 2")
    if order > MAX_VERIFY_ORDER:
        raise ResourceLimitError(f"--order {order} exceeds the limit of {MAX_VERIFY_ORDER}")

    if spec.is_chern_character:
        results = verify_chern_character(order)
    else:
        results = verify_multiplicative(class_series(spec, order + 2), spec.label, order)

    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status}  {result.name.ljust(width)}  {result.seconds:8.3f}s\n")
        if not result.passed:
            sys.stdout.write(f"      {result.detail}\n")
    failed = sum(1 for result in results if not result.passed)
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} checks passed "
        f"(class {spec.label}, order {order})\n"
    )
    return 0 if failed == 0 else 1


def cmd_equivariant(args: argparse.Namespace, spec: ClassSpec) -> int:
    if spec.is_chern_character:
        raise UsageError(
            "equivariant sums need a multiplicative class; "
            "chern-character is not one"
        )
    level = args.level
    bound = args.bound
    if level < 0:
        raise UsageError("--level must be nonnegative")
    if bound < 0:
        raise UsageError("--bound must be nonnegative")
    if bound > MAX_EQUIVARIANT_LEVEL:
        raise ResourceLimitError(
            f"--bound {bound} exceeds the hard limit of {MAX_EQUIVARIANT_LEVEL}"
        )
    if level > bound:
        raise ResourceLimitError(
            f"--level {level} exceeds the configured bound of {bound}; "
            f"raise --bound if you really want this"
        )
    f = class_series(spec, level)
    try:
        vector = equivariant_class_coeffs(f, args.gamma, level)
    except InternalCheckError:
        raise  # a bug, not a usage error
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    sys.stdout.write(_equivariant_text(spec.label, args, vector))
    return 0


def _equivariant_text(label: str, args: argparse.Namespace, vector: tuple) -> str:
    if args.format == "json":
        payload = {
            "class": label,
            "gamma": args.gamma,
            "level": args.level,
            "entries": [
                {
                    "lambda0": list(pair.lambda0.parts),
                    "lambda1": list(pair.lambda1.parts),
                    "value": str(value),
                }
                for pair, value in vector
            ],
        }
        return _json_text(payload)
    if args.format == "csv":
        rows = [[str(pair.lambda0), str(pair.lambda1), str(value)] for pair, value in vector]
        return _csv_text(["lambda0", "lambda1", "value"], rows)
    width = max(len(str(pair)) for pair, _ in vector)
    lines = [f"class {label}, twist gamma={args.gamma}, level {args.level}\n\n"]
    lines.extend(f"{str(pair).ljust(width)}  {value}\n" for pair, value in vector)
    return "".join(lines)


_CLASSES_HELP = (
    "preset name (trivial, chern-total, todd, l-genus, a-hat, chern-character) "
    "or comma-separated rationals c1,c2,... for f = 1 + c1 x + c2 x^2 + ..."
)
_FORMATS = ("json", "csv", "pretty")

# Each subcommand's help, handler and flags in parser order, a flag being (option,
# dest, type, default, required, help); the type is int, str or a tuple of choices.
_COMMANDS = {
    "table": ("print coefficient tables", cmd_table, (
        ("--class", "class_spec", str, None, True, _CLASSES_HELP),
        ("--max-degree", "max_degree", int, 12, False, "largest total degree"),
        ("--target", "target", ("tangent", "tautological", "chern-character"), None, False,
         "which bundle family the table describes (default: inferred from the class)"),
        ("--basis", "basis", ("theorem", "universal"), "theorem", False,
         "raw coefficients or the operator-basis conversion"),
        ("--format", "format", _FORMATS, "pretty", False, None),
    )),
    "verify": ("run the cross-check battery", cmd_verify, (
        ("--class", "class_spec", str, None, True, _CLASSES_HELP),
        ("--order", "order", int, 8, False, "total degree to check through"),
    )),
    "equivariant": ("fixed-point-basis coefficients at one level", cmd_equivariant, (
        ("--class", "class_spec", str, None, True, _CLASSES_HELP),
        ("--gamma", "gamma", int, 2, False, "twist of the line bundle"),
        ("--level", "level", int, None, True, "number of points"),
        ("--bound", "bound", int, DEFAULT_EQUIVARIANT_BOUND, False, "refuse levels above this (soft budget)"),
        ("--format", "format", _FORMATS, "pretty", False, None),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="hilbfock",
        description="Exact coefficient tables for characteristic classes of Hilbert schemes of points.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, func, flags) in _COMMANDS.items():
        subparser = subparsers.add_parser(command, help=command_help)
        for option, dest, kind, default, required, flag_help in flags:
            choices = kind if isinstance(kind, tuple) else None
            subparser.add_argument(option, dest=dest, type=int if kind is int else None, choices=choices,
                                   default=default, required=required, help=flag_help)
        subparser.set_defaults(func=func)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a subcommand and distinct ``--flag value``
    pairs, each flag in full, no value starting with '-', each value valid and each
    required flag given; None for any other command line, which argparse reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, flags = _COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))  # fewer than len(argv) // 2: a flag repeats or dangles
    required = {option for option, _, _, _, is_required, _ in flags if is_required}
    if len(given) < len(argv) // 2 or not required <= given.keys() <= {flag[0] for flag in flags}:
        return None
    values = {}
    for option, dest, kind, default, _, _ in flags:
        text = given.get(option)
        if text is None:
            values[dest] = default
        elif text.startswith("-") or (isinstance(kind, tuple) and text not in kind):
            return None
        elif kind is int:
            try:
                values[dest] = int(text)
            except ValueError:
                return None
        else:
            values[dest] = text
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: list[str] | None = None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
    try:
        spec = parse_class_spec(args.class_spec)
        return _unlimited_digits(args.func, args, spec)
    except (UsageError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3


def run() -> NoReturn:
    """``sys.exit(main())`` without the interpreter's teardown.

    Both streams are flushed first; a flush that fails (a reader that
    closed the pipe, a closed stream) leaves the exit to ``sys.exit``,
    whose teardown reports it as before.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
