"""Every definition in the package has a caller.

The definitions are the top-level functions and classes, and the
methods and properties (dunders aside) of the top-level classes,
properties assigned from a ``property(...)`` call too.  A public
top-level name counts as live when it is exported in
``hilbfock.__all__`` or appears as a ``Name`` or ``Attribute`` somewhere
in the package source outside its own definition; a private name only
in the second way.  Code that only tests use belongs in ``tests/``, and
a helper that a refactor leaves without a caller fails here.

A method, a property or an operator is reached through an object, and
its name does not say whose: ``CoeffTable.value`` shares its name with
any other ``value``.  So these are checked at run time, by their code
objects: a ``verify`` job, a ``table`` job, an ``equivariant`` job and
a pass over the dual numbers run under a profiler that records each
function a frame of the package calls, and every method and property,
and every arithmetic operator of ``series`` and ``rings``, must be
among them.
"""

import ast
import importlib
import io
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from pathlib import Path

import hilbfock
from hilbfock import DUALS, DualNumber, Series1, cli, verification
from hilbfock.closedform import tangent_tables, z_closed
from hilbfock.localisation import equivariant_class_coeffs, z_series_residue

SOURCE = Path(hilbfock.__file__).parent

# Public methods kept with no caller in the package, with the reason.
KEPT_FOR_LIBRARY_USE = (
    # the README promises library users coefficient access on both series types
    "series.py:Series1.coefficient",
)

JOBS = (
    ["verify", "--class", "chern-total", "--order", "8"],
    ["table", "--class", "todd", "--max-degree", "6"],
    ["equivariant", "--class", "todd", "--gamma", "3", "--level", "4"],
)

ARITHMETIC_DUNDERS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def _trees() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }


def _names(node) -> Counter:
    """How often each name is referenced under node as a ``Name`` or an ``Attribute``."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.Name):
            counts[child.id] += 1
    return counts


def _top_level_definitions():
    """Each top-level function and class as (module:name, name, is
    referenced from outside its own body)."""
    trees = _trees()
    references = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        (f"{module}:{top.name}", top.name, references[top.name] > _names(top)[top.name])
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    ]


def _member_names(member) -> list:
    """The names a statement of a class body binds to a function: a
    ``def``, or an assignment of a ``property(...)`` call."""
    if isinstance(member, ast.FunctionDef):
        return [member.name]
    if isinstance(member, ast.Assign) and isinstance(member.value, ast.Call):
        if ast.unparse(member.value.func) == "property":
            return [target.id for target in member.targets if isinstance(target, ast.Name)]
    return []


def _members() -> dict:
    """module:Class.name -> the code object of each function that the
    body of a top-level class binds (``_member_names``): for a property
    its getter, for a static method its function.  The code object, not
    a first line, names the function, since a decorated function's first
    line is its decorator's."""
    members = {}
    for module, tree in _trees().items():
        namespace = importlib.import_module(f"hilbfock.{module.removesuffix('.py')}")
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                owner = vars(getattr(namespace, top.name))
                for name in (name for member in top.body for name in _member_names(member)):
                    value = owner[name]
                    value = getattr(value, "fget", value)
                    value = getattr(value, "__func__", value)
                    members[f"{module}:{top.name}.{name}"] = value.__code__
    return members


def _dual_library_pass() -> None:
    """The library over the dual numbers, where the operators of
    ``DualNumber`` run on ring elements and on the numerators of
    ``DUALS.split``: the residue route, the triple agreement and the
    log-exp check at order 8, and the fixed-point vectors at level 6,
    for f = 1 + x + eps (x^2 + ... + x^10).  The triangular division
    behind its reciprocal and its log reaches the numerators' unary
    minus."""
    eps = DualNumber(Fraction(0), Fraction(1))
    f = Series1((DUALS.one, DUALS.one) + (eps, DUALS.zero) * 5, 10, DUALS)
    z_series_residue(f, 8)
    closed = cache(lambda: z_closed(f, 8))
    tables = cache(lambda: tangent_tables(f, 8))
    assert verification._check_triple(f, 8, closed, tables) == ""
    assert verification._check_log_exp(closed(), tables()[1]) == ""
    equivariant_class_coeffs(f, 2, 6)


@cache
def _called_from_the_package() -> frozenset:
    """The code objects of the functions that frames of the package
    call during the ``JOBS`` and the dual-number pass."""
    called = set()

    def profile(frame, event, arg):
        caller = frame.f_back
        if event == "call" and caller is not None and Path(caller.f_code.co_filename).parent == SOURCE:
            called.add(frame.f_code)

    output = io.StringIO()
    sys.setprofile(profile)
    try:
        with redirect_stdout(output):
            codes = [cli.main(job) for job in JOBS]
        _dual_library_pass()
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(JOBS), output.getvalue()
    return frozenset(called)


def _uncalled_methods() -> list:
    """The methods and properties, dunders aside, that no frame of the
    package calls during the run-time pass."""
    called = _called_from_the_package()
    return [
        label
        for label, code in _members().items()
        if not label.rpartition(".")[2].startswith("__") and code not in called
    ]


def test_every_public_definition_is_exported_or_called():
    exported = set(hilbfock.__all__)
    dead = [
        label
        for label, name, called in _top_level_definitions()
        if not name.startswith("_") and name not in exported and not called
    ]
    assert dead == []


def test_every_private_definition_is_called():
    dead = [label for label, name, called in _top_level_definitions() if name.startswith("_") and not called]
    assert dead == []


def test_every_method_and_property_is_called():
    assert [label for label in _uncalled_methods() if label not in KEPT_FOR_LIBRARY_USE] == []


def test_methods_kept_for_library_use_exist_and_have_no_caller():
    assert set(KEPT_FOR_LIBRARY_USE) <= set(_uncalled_methods())


def test_every_series_operator_is_called_from_the_package():
    """The ``verify`` job reaches every stage of the package, and the
    dual-number pass every operator of ``DualNumber``, on elements and
    on numerators; an arithmetic operator of ``series.py`` or
    ``rings.py`` that no frame in the package calls during the run-time
    pass is one that only tests use."""
    dunders = {
        label: code
        for label, code in _members().items()
        if label.partition(":")[0] in ("series.py", "rings.py")
        and label.rpartition(".")[2] in ARITHMETIC_DUNDERS
    }
    assert {label.partition(":")[2].partition(".")[0] for label in dunders} >= {"Series1", "DualNumber"}
    called = _called_from_the_package()
    assert sorted(label for label, code in dunders.items() if code not in called) == []
