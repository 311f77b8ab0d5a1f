"""Every definition in the package has a caller.

The definitions are the top-level functions and classes, and the
methods and properties (dunders aside) of the top-level classes.  A
public top-level name counts as live when it is exported in
``hilbfock.__all__`` or appears as a ``Name`` or ``Attribute`` somewhere
in the package source outside its own definition; a private name only
in the second way.  A method or property is reached through an
attribute, so it counts as live only when its name appears as an
``Attribute`` outside its own definition: a parameter or local variable
of the same name does not keep it alive.  Code that only tests use
belongs in ``tests/``, and a helper that a refactor leaves without a
caller fails here.

Operators are not reached through a name, so the arithmetic dunders of
``series`` and ``rings`` are checked by running a ``verify`` job and a
pass over the dual numbers that reach every one the package uses, and
asking that each was called from the package.
"""

import ast
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import hilbfock
from hilbfock import DUALS, DualNumber, Series1, cli, verification
from hilbfock.closedform import tangent_tables, z_closed
from hilbfock.localisation import equivariant_class_coeffs, z_series_residue

SOURCE = Path(hilbfock.__file__).parent

# Public methods kept with no caller in the package; none at present.
# References are matched by method name, so the call of
# ``Series2.coefficient`` in ``verification._check_triple`` also covers
# ``Series1.coefficient``, which the README promises to library users.
KEPT_FOR_LIBRARY_USE = ()


def _names(node, attributes_only: bool) -> Counter:
    """How often each name is referenced under node as an ``Attribute``,
    or also as a ``Name``."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            counts[child.attr] += 1
        elif isinstance(child, ast.Name) and not attributes_only:
            counts[child.id] += 1
    return counts


def _definitions_and_references():
    """Each definition as (module:qualified name, name, is top-level,
    is referenced from outside its own body)."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    references = {
        attributes_only: sum((_names(tree, attributes_only) for tree in trees.values()), Counter())
        for attributes_only in (False, True)
    }
    definitions = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(top, top.name, True)]
            if isinstance(top, ast.ClassDef):
                members += [
                    (member, f"{top.name}.{member.name}", False)
                    for member in top.body
                    if isinstance(member, ast.FunctionDef)
                ]
            for node, qualified, top_level in members:
                if not node.name.startswith("__"):
                    # a method is reached through an attribute
                    only = not top_level
                    called = references[only][node.name] > _names(node, only)[node.name]
                    definitions.append((f"{module}:{qualified}", node.name, top_level, called))
    return definitions


def test_every_public_definition_is_exported_or_called():
    exported = set(hilbfock.__all__)
    dead = [
        label
        for label, name, top_level, called in _definitions_and_references()
        if top_level and not name.startswith("_") and name not in exported and not called
    ]
    assert dead == []


def test_every_private_definition_is_called():
    dead = [
        label
        for label, name, top_level, called in _definitions_and_references()
        if top_level and name.startswith("_") and not called
    ]
    assert dead == []


def test_every_method_and_property_is_called():
    dead = [
        label
        for label, name, top_level, called in _definitions_and_references()
        if not top_level and not called and label not in KEPT_FOR_LIBRARY_USE
    ]
    assert dead == []


def test_methods_kept_for_library_use_exist_and_have_no_caller():
    uncalled = {label for label, _, _, called in _definitions_and_references() if not called}
    assert set(KEPT_FOR_LIBRARY_USE) <= uncalled


ARITHMETIC_DUNDERS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def _arithmetic_dunders() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``Class.__op__`` of each arithmetic dunder
    defined with ``def`` in series.py and rings.py."""
    dunders = {}
    for module in ("series.py", "rings.py"):
        path = SOURCE / module
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(member, ast.FunctionDef) and member.name in ARITHMETIC_DUNDERS:
                        dunders[(str(path), member.lineno)] = f"{top.name}.{member.name}"
    return dunders


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


def test_every_series_operator_is_called_from_the_package(capsys):
    """``verify --class chern-total --order 8`` reaches every stage of the
    package, and the dual-number pass above every operator of
    ``DualNumber``, on elements and on numerators; an operator of
    ``series.py`` or ``rings.py`` that no frame in the package calls
    during them is one that only tests use."""
    dunders = _arithmetic_dunders()
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if event == "call" and key in dunders:
            if Path(frame.f_back.f_code.co_filename).parent == SOURCE:
                reached.add(dunders[key])

    sys.setprofile(profile)
    try:
        code = cli.main(["verify", "--class", "chern-total", "--order", "8"])
        _dual_library_pass()
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr().out
    assert {label.split(".")[0] for label in dunders.values()} >= {"Series1", "DualNumber"}
    assert sorted(set(dunders.values()) - reached) == []
