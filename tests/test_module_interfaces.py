"""What the package modules may take from one another.

A module of ``hilbfock`` imports only public names (and dunders such
as ``__version__``) from its siblings, so a sibling's ``_``-prefixed
helpers stay free to change; the series layer offers its numerator
kernels under public names for that.  And the package has one log
recurrence, ``series.log_numerators``: the fixed-point sums in
``localisation`` scale its weights but define no recurrence of their
own.
"""

import ast
from pathlib import Path

import hilbfock

SOURCE = Path(hilbfock.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _sibling_imports(tree: ast.Module):
    """(module, name) for each name imported from another package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("hilbfock")
        ):
            for alias in node.names:
                yield node.module, alias.name


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [
        f"{path.name}: {name} from {module}"
        for path in sorted(SOURCE.glob("*.py"))
        for module, name in _sibling_imports(_tree(path))
        if name.startswith("_") and not name.endswith("__")
    ]
    assert private == []


def test_localisation_takes_the_log_from_series_and_defines_no_recurrence():
    tree = _tree(SOURCE / "localisation.py")
    assert ("series", "log_numerators") in set(_sibling_imports(tree))
    looping_logs = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and "log" in node.name.lower()
        and any(isinstance(inner, (ast.For, ast.While)) for inner in ast.walk(node))
    ]
    assert looping_logs == []
