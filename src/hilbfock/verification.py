"""Cross-checks between the independent computation routes.

Every function here re-derives something twice and compares exactly.
The checks are deliberately redundant with the unit tests: they are
meant to run from the command line against user-chosen classes and
orders, not just against the frozen cases in the test suite.

Each check returns a CheckResult with a stable name, a pass flag, a
human-readable detail (empty on success, the first discrepancy
otherwise) and its wall-clock duration.
"""

from __future__ import annotations

import time
from functools import cache
from fractions import Fraction
from typing import Callable

from .closedform import (
    CoeffTable,
    a_k_table,
    a_kl_table,
    chern_character_class,
    chern_character_tables,
    corollary_via_dual,
    preset_class,
    tangent_tables,
    taut_tables,
    to_universal,
    z_closed,
)
from .localisation import (
    equivariant_class_coeffs,
    hook_coefficient,
    z_series_hookform,
    z_series_residue,
)
from .rings import Frozen
from .series import Series1, Series2, SeriesError, check_class_series

# Frozen universal coefficients for the two presets whose tables are
# documented in the README.  Any drift anywhere in the pipeline is
# caught here first.
KNOWN_UNIVERSAL_VALUES: dict[str, dict[tuple[int, int], Fraction]] = {
    "chern-total": {
        (1, 1): Fraction(3, 2),
        (3, 1): Fraction(-1),
        (2, 2): Fraction(-7, 4),
        (5, 1): Fraction(2),
        (4, 2): Fraction(2),
        (3, 3): Fraction(3),
    },
    "chern-character": {
        (1, 1): Fraction(-3, 2),
        (3, 1): Fraction(-5, 12),
        (2, 2): Fraction(5, 24),
        (5, 1): Fraction(-7, 360),
        (4, 2): Fraction(7, 180),
        (3, 3): Fraction(-7, 240),
    },
}


class CheckResult(Frozen):
    __slots__ = ("name", "passed", "detail", "seconds")


def _run(name: str, check: Callable[[], str]) -> CheckResult:
    """Time one check; the check returns an empty string on success.  A
    check that raises SeriesError (a numerator table left not divisible
    by x - y, a self-check's InternalCheckError) fails with it as its detail."""
    start = time.perf_counter()
    try:
        detail = check()
    except SeriesError as exc:
        detail = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CheckResult(name, detail == "", detail, elapsed)


def _first_difference(a: Series2, b: Series2, label_a: str, label_b: str) -> str:
    """Empty when a == b; else the first coefficient where they differ or,
    when every row they share agrees, the orders at which they stop."""
    if a == b:
        return ""
    for degree in range(min(a.order, b.order) + 1):
        row_a = a.homogeneous(degree)
        row_b = b.homogeneous(degree)
        if row_a != row_b:
            for i, (va, vb) in enumerate(zip(row_a, row_b)):
                if va != vb:
                    return (
                        f"first difference at x^{i} y^{degree - i}: "
                        f"{label_a} gives {va}, {label_b} gives {vb}"
                    )
    return f"{label_a} stops at total degree {a.order}, {label_b} at total degree {b.order}"


def _check_triple(
    f: Series1, order: int, closed: Callable[[], Series2], tables: Callable[[], tuple]
) -> str:
    """The three routes to Z agree, and so does the closed-form a_k with
    row 0 of Z: since g(0) = 0, g'(0) = 1 and G(g(x)) = x, Z(x, 0) = g'(x),
    so [x^(k-1) y^0] Z = k^2 a_k.  A route that raises a SeriesError (a
    fault that leaves a numerator table not divisible by x - y) fails
    the check under the route's name."""
    routes = (
        ("closed form", closed),
        ("fixed-point sum", lambda: z_series_hookform(f, order)),
        ("residue extraction", lambda: z_series_residue(f, order)),
        ("closed-form tables", lambda: tables()[0]),
    )
    values = []
    for label, route in routes:
        try:
            values.append(route())
        except SeriesError as exc:
            return f"the {label} raised {type(exc).__name__}: {exc}"
    closed_z, hookform, residue, a_k = values
    for label, z in (("fixed-point sum", hookform), ("residue extraction", residue)):
        if detail := _first_difference(closed_z, z, "closed form", label):
            return detail
    for k in range(1, order + 1):
        row_zero, expected = hookform.coefficient(k - 1, 0), k * k * a_k[k]
        if row_zero != expected:
            return (
                f"at x^{k - 1} y^0 the fixed-point sum gives {row_zero}, "
                f"but {k}^2 a_{k} = {expected} from the closed form"
            )
    return ""


def _check_log_exp(z: Series2, table: CoeffTable) -> str:
    """log Z equals R, the double sum of the a_kl, to the order of Z, with no log taken.

    R is the sum of a_kl (x^(k+l) + y^(k+l) + x^k y^l + x^l y^k) over
    k, l >= 1.  E = x d/dx + y d/dy multiplies the row of total degree d
    by d, and E(log Z) = E(Z) / Z.  Since Z(0, 0) = 1 and R(0, 0) = 0,
    log Z = R holds exactly when E(Z) = Z E(R): one two-variable product.
    """
    ring, order = z.ring, z.order
    if z.constant_term != ring.one:
        return f"Z has constant term {z.constant_term}, not 1"
    euler_r = [(ring.zero,)]
    for d in range(1, order + 1):
        row = [table.value(i, d - i) * d for i in range(1, d)]
        pure = sum(row, ring.zero)
        euler_r.append((pure, *(v * 2 for v in row), pure))
    left = Series2(tuple(tuple(c * d for c in row) for d, row in enumerate(z.rows)), z.order, ring)
    right = z * Series2(tuple(euler_r), order, ring)
    return _first_difference(left, right, "E(Z)", "Z E(double sum of a_kl)")


def _check_even_a_k(a_k: dict[int, Fraction]) -> str:
    for k in range(2, len(a_k) + 1, 2):
        if a_k[k] != 0:
            return f"a_{k} = {a_k[k]} but even-index coefficients must vanish"
    return ""


def _check_parity(a_k: dict[int, Fraction], z: Series2) -> str:
    if detail := _check_even_a_k(a_k):
        return detail
    for degree in range(1, z.order + 1, 2):
        row = z.homogeneous(degree)
        if any(row):
            return f"Z has a nonzero layer in odd total degree {degree}"
    return ""


def _check_symmetry(z: Series2) -> str:
    return _first_difference(z, z.swap(), "Z(x, y)", "Z(y, x)")


def _check_reduction(f: Series1, bound: int) -> str:
    """Each entry of the twist-2 vector that ``equivariant --gamma 2``
    prints, at each level up to bound, equals its hook form."""
    for n in range(bound + 1):
        for pair, general in equivariant_class_coeffs(f, 2, n):
            if general != (hooks := hook_coefficient(f, pair)):
                return f"pair {pair}: general twist-2 coefficient {general} differs from hook form {hooks}"
    return ""


def _check_trivial_baseline(order: int) -> str:
    degree = min(order, 4)
    one = preset_class("trivial", degree + 2)
    if z_closed(one, degree) != Series2(((Fraction(1),),), degree):
        return "Z for the trivial class is not identically 1"
    a_k = a_k_table(one, degree)
    if a_k[1] != 1 or any(a_k[k] != 0 for k in range(2, degree + 1)):
        return f"trivial class single-index table is not (1, 0, 0, ...): {a_k}"
    if any(value != 0 for value in a_kl_table(one, degree).entries.values()):
        return "trivial class pair table has a nonzero entry"
    taut_a_k, taut_pairs = taut_tables(one, degree)
    if taut_a_k[1] != 1 or any(taut_a_k[k] != 0 for k in range(2, degree + 1)):
        return "trivial class tautological single-index table is not (1, 0, 0, ...)"
    if any(value != 0 for value in taut_pairs.entries.values()):
        return "trivial class tautological pair table has a nonzero entry"
    return ""


def _check_dual(n: int) -> str:
    """Both Chern-character tables to total degree n agree, from one
    dual-number run and from the factorial formulas."""
    _, direct = chern_character_tables(n)
    for (k, l), value in corollary_via_dual(n).entries.items():
        expected = direct.value(k, l)
        if value != expected:
            return (
                f"dual-number route gives a_({k},{l}) = {value}, "
                f"direct formula gives {expected}"
            )
    return ""


def _check_anchors(name: str) -> str:
    anchors = KNOWN_UNIVERSAL_VALUES[name]
    if name == "chern-character":
        universal = to_universal(chern_character_tables(6)[1])
    else:
        universal = to_universal(a_kl_table(preset_class(name, 7), 6))
    for (k, l), expected in anchors.items():
        actual = universal.value(k, l)
        if actual != expected:
            return f"universal a^({k},{l}) = {actual}, frozen anchor says {expected}"
    return ""


def verify_multiplicative(f: Series1, name: str, order: int) -> list[CheckResult]:
    """The full cross-check battery for a multiplicative class.

    The class series must carry two orders of slack beyond ``order``
    because the residue route divides by (x - y) twice; it is read
    through ``check_class_series`` before any check runs.  The closed-form
    Z and the tangent tables are computed at most once per call, by the
    first check that reads them.
    """
    if order < 2:
        raise ValueError("verification needs order at least 2")
    check_class_series(f, order + 2)
    closed = cache(lambda: z_closed(f, order))
    tables = cache(lambda: tangent_tables(f, order))
    results = [
        _run("triple-agreement", lambda: _check_triple(f, order, closed, tables)),
        _run("log-exp-consistency", lambda: _check_log_exp(closed(), tables()[1])),
        _run("parity", lambda: _check_parity(tables()[0], closed())),
        _run("symmetry", lambda: _check_symmetry(closed())),
        _run("fixed-point-reduction", lambda: _check_reduction(f, min(order, 6))),
        _run("triviality-baseline", lambda: _check_trivial_baseline(order)),
        _run("dual-number-oracle", lambda: _check_dual(min(order, 6))),
    ]
    if name in KNOWN_UNIVERSAL_VALUES:
        results.append(_run("universal-anchors", lambda: _check_anchors(name)))
    return results


def verify_chern_character(order: int) -> list[CheckResult]:
    """Cross-checks for the Chern character, which has no defining series.

    The direct factorial formulas are compared against the dual-number
    route degree by degree, the a_k of the dual-number route must vanish
    at even k in both parts, and the universal conversion is pinned to
    its frozen anchor values.
    """
    if order < 2:
        raise ValueError("verification needs order at least 2")
    return [
        _run("dual-number-oracle", lambda: _check_dual(min(order, 12))),
        _run("parity", lambda: _check_even_a_k(tangent_tables(chern_character_class(order), order)[0])),
        _run("universal-anchors", lambda: _check_anchors("chern-character")),
    ]
