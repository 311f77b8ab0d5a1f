"""Every definition in the package has a caller.

The definitions are the top-level functions and classes, and the
methods and properties (dunders aside) of the top-level classes.  A
public top-level name counts as live when it is exported in
``hilbfock.__all__`` or appears as a ``Name`` or ``Attribute`` somewhere
in the package source outside its own definition; a private name, and
every method, only in the second way.  Code that only tests use belongs
in ``tests/``, and a helper that a refactor leaves without a caller
fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import hilbfock

SOURCE = Path(hilbfock.__file__).parent


def _names(node) -> Counter:
    """How often each name is referenced as a ``Name`` or ``Attribute`` under node."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def _definitions_and_references():
    """Each definition as (module:qualified name, name, is top-level,
    is referenced from outside its own body)."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    references = sum((_names(tree) for tree in trees.values()), Counter())
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
                    called = references[node.name] > _names(node)[node.name]
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
        if not top_level and not called
    ]
    assert dead == []
