"""Lagrange-Good coefficient extraction, kept as a test oracle.

Nothing in the package extracts coefficients this way any more (the
inverter applies the one-variable Lagrange formula directly), so the
general extraction and the partial derivatives and single-variable
divisions that only it needs live here, next to the tests that check
them against forward substitution.
"""

from __future__ import annotations

from typing import Any, Sequence

from hilbfock.series import (
    InsufficientOrderError,
    NotInvertibleError,
    Series1,
    Series2,
    SeriesError,
    differentiate,
    reciprocal,
    shift_down,
)


def differentiate_x(series: Series2) -> Series2:
    """Partial derivative in the first variable; order drops by one."""
    if series.order < 1:
        raise InsufficientOrderError("insufficient precision: cannot differentiate a constant-order series")
    ring = series.ring
    rows = []
    for d in range(1, series.order + 1):
        row = series.rows[d]
        rows.append(tuple(ring.coerce(i + 1) * row[i + 1] for i in range(d)))
    return Series2(tuple(rows), series.order - 1, ring)


def differentiate_y(series: Series2) -> Series2:
    return differentiate_x(series.swap()).swap()


def divide_by_x(series: Series2) -> Series2:
    """Exact division by the first variable."""
    ring = series.ring
    if series.order < 1:
        raise InsufficientOrderError("insufficient precision: cannot divide a constant-order series")
    for d in range(series.order + 1):
        if series.rows[d][0] != ring.zero:
            raise SeriesError("series is not divisible by its first variable")
    rows = tuple(tuple(series.rows[d + 1][1:]) for d in range(series.order))
    return Series2(rows, series.order - 1, ring)


def divide_by_y(series: Series2) -> Series2:
    return divide_by_x(series.swap()).swap()


def lagrange_good_extract(g, f_list: Sequence, k) -> Any:
    """Coefficient c_k in the expansion of g as a series in the f_i.

    Given f_i divisible by the i-th variable with invertible diagonal
    derivative at the origin, g expands uniquely as sum of c_k * f^k;
    this computes a single c_k as a residue turned into an ordinary
    coefficient extraction:

        c_k = [z^k] g * J * prod (f_i / z_i)^(-(k_i + 1))

    where J is the Jacobian determinant of the f_i (the plain
    derivative in one variable).  One and two variables are supported.
    """
    f_list = list(f_list)
    if isinstance(k, int):
        k = (k,)
    k = tuple(k)
    if len(f_list) != len(k):
        raise SeriesError("need exactly one index entry per series")
    if len(f_list) == 1:
        f = f_list[0]
        if not isinstance(g, Series1) or not isinstance(f, Series1):
            raise SeriesError("one-variable extraction needs Series1 arguments")
        (k1,) = k
        if k1 < 0:
            raise SeriesError("indices must be non-negative")
        h = shift_down(f, 1)  # checks divisibility by the variable
        if not f.ring.is_unit(h.constant_term):
            raise NotInvertibleError("not invertible under composition")
        factor = reciprocal(h) ** (k1 + 1)
        product = g * differentiate(f) * factor
        return product.coefficient(k1)
    if len(f_list) == 2:
        f1, f2 = f_list
        if not isinstance(g, Series2) or not isinstance(f1, Series2) or not isinstance(f2, Series2):
            raise SeriesError("two-variable extraction needs Series2 arguments")
        k1, k2 = k
        if k1 < 0 or k2 < 0:
            raise SeriesError("indices must be non-negative")
        h1 = divide_by_x(f1)
        h2 = divide_by_y(f2)
        if not g.ring.is_unit(h1.constant_term) or not g.ring.is_unit(h2.constant_term):
            raise NotInvertibleError("not invertible under composition")
        jacobian = differentiate_x(f1) * differentiate_y(f2) - differentiate_y(f1) * differentiate_x(f2)
        product = g * jacobian * (reciprocal(h1) ** (k1 + 1)) * (reciprocal(h2) ** (k2 + 1))
        return product.coefficient(k1, k2)
    raise SeriesError("at most two variables are supported")
