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
``series`` are checked by running a ``verify`` job that reaches every
one the package uses, and asking that each was called from the package.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import hilbfock
from hilbfock import cli

SOURCE = Path(hilbfock.__file__).parent

# Public methods kept with no caller in the package: the coefficient
# accessors of the series, which raise InsufficientOrderError for a
# degree beyond the truncation order instead of returning a silent
# zero.  The README promises them to library users.
KEPT_FOR_LIBRARY_USE = ("series.py:Series1.coefficient", "series.py:Series2.coefficient")


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


def _series_arithmetic_dunders() -> dict[int, str]:
    """First line -> ``Class.__op__`` of each arithmetic dunder in series.py."""
    tree = ast.parse((SOURCE / "series.py").read_text(encoding="utf-8"))
    return {
        member.lineno: f"{top.name}.{member.name}"
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for member in top.body
        if isinstance(member, ast.FunctionDef) and member.name in ARITHMETIC_DUNDERS
    }


def test_every_series_operator_is_called_from_the_package(capsys):
    """``verify --class chern-total --order 8`` reaches every stage of the
    package; an operator of ``Series1`` or ``Series2`` that no frame in the
    package calls during it is one that only tests use."""
    dunders = _series_arithmetic_dunders()
    series_file = str(SOURCE / "series.py")
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == series_file and code.co_firstlineno in dunders:
            if Path(frame.f_back.f_code.co_filename).parent == SOURCE:
                reached.add(dunders[code.co_firstlineno])

    sys.setprofile(profile)
    try:
        code = cli.main(["verify", "--class", "chern-total", "--order", "8"])
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr().out
    assert dunders, "no arithmetic dunder found in series.py"
    assert sorted(set(dunders.values()) - reached) == []
