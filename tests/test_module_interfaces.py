"""What the package modules may take from one another.

A module of ``hilbfock`` imports only public names (and dunders such
as ``__version__``) from its siblings, so a sibling's ``_``-prefixed
helpers stay free to change; the series layer offers its numerator
kernels under public names for that.  And the package has one log
recurrence, ``series.log_numerators``: the fixed-point sums in
``localisation`` scale its weights but define no recurrence of their
own, and take the weights of f(u) f(-u) and the diagram rows from the
same record, which ``_class_log`` returns whole.  The
closed-form tables run no step of the inversion that
``z_closed`` runs, and the inversion reads g off the powers of phi with
no reciprocal.  No numerator kernel takes a degree: each reads it off
its operands, and so do the private helpers of the closed-form tables,
of ``verify`` and of ``table``'s writers.  A two-variable Schur
polynomial is a row of integers, so ``symfun`` needs no series or ring,
and the hook form reads the row as it is.  A two-variable table keeps
one denominator per row everywhere but at the congruence, so only the
residue route splits a whole table over one denominator.  The two
series types state the truncation contract once, in their base class.
"""

import ast
import inspect
from pathlib import Path

import hilbfock
from hilbfock import cli, closedform, localisation, series, verification

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


def test_hook_form_shares_no_convolution_and_localisation_keeps_no_cache():
    """The hook form is checked against ``pair_coefficient``, so neither
    ``hook_coefficient`` nor ``z_series_hookform`` runs that path's
    per-diagram rows or reads the row table kept in the record of
    ``_class_log``; and no table sits behind ``functools.cache``."""
    tree = _tree(SOURCE / "localisation.py")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    hooks = [node for node in functions if node.name in ("hook_coefficient", "z_series_hookform")]
    assert len(hooks) == 2
    for hook in hooks:
        names = {node.id for node in ast.walk(hook) if isinstance(node, ast.Name)}
        assert "_power_sum_exp" in names
        assert names.isdisjoint({"_diagram_row", "_DiagramRows", "_last_log"})
    decorators = [ast.unparse(d) for node in functions for d in node.decorator_list]
    assert not any("cache" in d for d in decorators)
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "functools" not in imported


def test_only_the_class_log_names_its_memo():
    """``_class_log`` returns its whole record, the diagram rows with the
    weights, so no other function reads the memo ``_last_log``."""
    readers = [
        f"{path.name}: {node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(inner, ast.Name) and inner.id == "_last_log" for inner in ast.walk(node))
    ]
    assert readers == ["localisation.py: _class_log"]


def test_the_weights_of_F_come_only_from_the_class_log():
    """``_class_log`` forms the weights of F(u) = f(u) f(-u) next to
    those of f, so the hook form passes ``_power_sum_exp`` the third
    value of the record unchanged, and the exponential starts from
    e_0 = 1 without reading w_0."""
    tree = _tree(SOURCE / "localisation.py")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_even_doubled" not in functions
    for name in ("hook_coefficient", "z_series_hookform"):
        nodes = list(ast.walk(functions[name]))
        (record,) = [
            node.targets[0].elts[2].id
            for node in nodes
            if isinstance(node, ast.Assign) and ast.unparse(node.value).startswith("_class_log(")
        ]
        passed = [
            ast.unparse(node.args[0])
            for node in nodes
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_power_sum_exp"
        ]
        stores = [node for node in nodes if isinstance(node, ast.Name) and node.id == record]
        assert passed == [record], name
        assert sum(isinstance(node.ctx, ast.Store) for node in stores) == 1, name
    exp = functions["_power_sum_exp"]
    reads = [ast.unparse(node) for node in ast.walk(exp) if isinstance(node, ast.Subscript)]
    assert "w[0]" not in reads


def test_the_closed_form_tables_take_no_inverse():
    """``tangent_tables`` and ``taut_tables`` read the tables off the
    powers of one series, so ``log-exp-consistency`` compares them with
    the inverted ``z_closed`` through no shared step but ``power_chain``.
    The names are followed through every ``closedform`` function that
    the tables call."""
    tree = _tree(SOURCE / "closedform.py")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def reached(name: str, seen: set) -> set:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                if node.id in functions:
                    reached(node.id, seen)
        return seen

    inversion = {
        "compositional_inverse",
        "congruence_numerators",
        "compose_difference_numerators",
        "divide_numerators_by_x_minus_y",
    }
    for name in ("tangent_tables", "taut_tables", "_power_tables"):
        names = reached(name, {name})
        assert "power_chain" in names
        assert names.isdisjoint(inversion), name


def test_the_inverse_takes_phi_and_forms_no_reciprocal():
    """``compositional_inverse`` inverts x / phi from phi itself, so it
    neither forms a reciprocal nor divides by x, and no package module
    defines ``shift_down``, which only the test oracles use."""
    functions = {
        path.name: {node.name: node for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)}
        for path in sorted(SOURCE.glob("*.py"))
    }
    inverse = functions["series.py"]["compositional_inverse"]
    names = {node.id for node in ast.walk(inverse) if isinstance(node, ast.Name)}
    assert "power_chain" in names
    assert names.isdisjoint({"reciprocal", "quotient_numerators", "shift_down"})
    assert [module for module, defined in functions.items() if "shift_down" in defined] == []


def test_no_numerator_kernel_takes_a_degree():
    """Each kernel runs to the degree its operands carry, by the rule of
    the series products, so its caller passes operands only."""
    parameters = {
        kernel.__name__: list(inspect.signature(kernel).parameters)
        for kernel in (
            series.convolve_numerators,
            series.multiply_graded_rows,
            series.congruence_numerators,
            series.power_chain,
            series.log_numerators,
            localisation._power_sum_exp,
            localisation._diagram_row,
        )
    }
    assert parameters == {
        "convolve_numerators": ["a", "b"],
        "multiply_graded_rows": ["ring", "A", "a", "B", "b"],
        "congruence_numerators": ["C", "T"],
        "power_chain": ["ring", "coefficients", "count"],
        "log_numerators": ["f"],
        "_power_sum_exp": ["w", "values"],
        "_diagram_row": ["w", "partition", "alpha", "beta"],
    }


def test_no_helper_takes_a_degree_its_operands_carry():
    """The power tables run to the order of P, the log-exp and parity
    checks to the order of Z and the even-a_k check to the length of
    a_k; the writers of ``table`` read the degree off the table, so no
    caller can pass a degree that disagrees with the data."""
    parameters = {
        helper.__name__: list(inspect.signature(helper).parameters)
        for helper in (
            closedform._power_tables,
            verification._check_log_exp,
            verification._check_parity,
            verification._check_even_a_k,
        )
    }
    assert parameters == {
        "_power_tables": ["P", "subtract_log"],
        "_check_log_exp": ["z", "table"],
        "_check_parity": ["a_k", "z"],
        "_check_even_a_k": ["a_k"],
    }
    writers = {name: getattr(cli, name) for name in dir(cli) if name.startswith("_table_")}
    assert sorted(writers) == ["_table_csv", "_table_json", "_table_pretty"]
    for name, writer in writers.items():
        assert "max_degree" not in inspect.signature(writer).parameters, name


def test_a_schur_polynomial_is_a_row_of_integers():
    """``symfun`` returns plain integer rows, so it imports nothing from
    ``series`` or ``rings``, and ``z_series_hookform`` adds each row as
    it is, reading no ``numerator`` off a ``Fraction`` and no
    ``homogeneous`` row off a ``Series2``."""
    modules = {module for module, _ in _sibling_imports(_tree(SOURCE / "symfun.py"))}
    assert modules.isdisjoint({"series", "rings", "hilbfock.series", "hilbfock.rings"})
    tree = _tree(SOURCE / "localisation.py")
    (hookform,) = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "z_series_hookform"
    ]
    names = {node.attr for node in ast.walk(hookform) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(hookform) if isinstance(node, ast.Name)}
    assert "schur_two_vars" in names
    assert names.isdisjoint({"numerator", "homogeneous"})


def test_only_the_congruence_input_is_split_over_one_denominator():
    """``divide_by_x_minus_y`` and ``compose`` split and join two-variable
    tables row by row, so the package source never mentions ``join_rows``
    or ``_regroup``, and ``split_rows``, the congruence's input format,
    is called only by ``z_series_residue``."""
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "join_rows" not in text and "_regroup" not in text, path.name
        for function in ast.walk(ast.parse(text)):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and ast.unparse(node.func) == "split_rows" for node in ast.walk(function)
            ):
                callers.add(f"{path.name}:{function.name}")
    assert callers == {"localisation.py:z_series_residue"}


def test_the_series_types_state_the_truncation_contract_once():
    """Every read beyond the order raises through ``_Series._within``, so
    only it and ``differentiate``, whose error says what it cannot do,
    build an InsufficientOrderError; the one constructor body refuses a
    negative order, and ``_Series._meet`` is the one operand check."""
    text = (SOURCE / "series.py").read_text(encoding="utf-8")
    functions = {}
    for top in ast.parse(text).body:
        if isinstance(top, ast.FunctionDef):
            functions[top.name] = top
        elif isinstance(top, ast.ClassDef):
            methods = (member for member in top.body if isinstance(member, ast.FunctionDef))
            functions.update({f"{top.name}.{method.name}": method for method in methods})
    raising = {
        name
        for name, function in functions.items()
        if any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "InsufficientOrderError"
            for node in ast.walk(function)
        )
    }
    assert raising == {"_Series._within", "differentiate"}
    assert text.count("truncation order must be non-negative") == 1
    assert "_require_same_ring" not in text
