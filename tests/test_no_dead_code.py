"""Every top-level function or class in the package has a caller.

A public name counts as live when it is exported in ``hilbfock.__all__``
or appears as a ``Name`` or ``Attribute`` somewhere in the package
source outside its own definition; a private name only in the second
way.  Code that only tests use belongs in ``tests/``, and a private
helper that a refactor leaves without a caller fails here.
"""

import ast
from pathlib import Path

import hilbfock

SOURCE = Path(hilbfock.__file__).parent


def _definitions_and_references():
    """Top-level definitions, and each name referenced from outside them."""
    definitions = []
    references = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("__"):
                owner = top.name
                definitions.append((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    references.add(name)
    return definitions, references


def test_every_public_definition_is_exported_or_called():
    definitions, references = _definitions_and_references()
    exported = set(hilbfock.__all__)
    dead = [
        f"{module}:{name}"
        for module, name in definitions
        if not name.startswith("_") and name not in exported and name not in references
    ]
    assert dead == []


def test_every_private_definition_is_called():
    definitions, references = _definitions_and_references()
    dead = [
        f"{module}:{name}"
        for module, name in definitions
        if name.startswith("_") and name not in references
    ]
    assert dead == []
