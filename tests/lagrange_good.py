"""Lagrange-Good coefficient extraction, kept as a test oracle.

Nothing in the package extracts coefficients this way any more (the
inverter applies the one-variable Lagrange formula directly), so the
general extraction and the partial derivatives, single-variable
divisions and two-variable reciprocal that only it and the oracles
need live here, next to the tests that check them against forward
substitution.
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
)

from fraction_kernels import add, negate, shift_down


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


def reciprocal2(series: Series2) -> Series2:
    """Multiplicative inverse of a two-variable series, by the triangular recursion.

    The constant term must be a unit of the coefficient ring.
    """
    ring = series.ring
    c0 = series.constant_term
    if not ring.is_unit(c0):
        raise NotInvertibleError("constant term is not a unit, no multiplicative inverse")
    inv0 = ring.one / c0
    n = series.order
    zero = ring.zero
    out = [[zero] * (d + 1) for d in range(n + 1)]
    out[0][0] = inv0
    for d in range(1, n + 1):
        for i in range(d + 1):
            acc = zero
            # sum over nonzero-degree factors a_(e,row) * out at (d-e)
            for e in range(1, d + 1):
                row = series.rows[e]
                for p in range(e + 1):
                    a = row[p]
                    if not a:
                        continue
                    q = i - p
                    if 0 <= q <= d - e:
                        acc = acc + a * out[d - e][q]
            out[d][i] = -inv0 * acc
    return Series2(tuple(tuple(row) for row in out), n, ring)


def _power(base, exponent: int):
    """base^exponent, for exponent >= 1."""
    result = base
    for _ in range(exponent - 1):
        result = result * base
    return result


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
        factor = _power(reciprocal(h), k1 + 1)
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
        jacobian = add(
            differentiate_x(f1) * differentiate_y(f2), negate(differentiate_y(f1) * differentiate_x(f2))
        )
        product = g * jacobian * _power(reciprocal2(h1), k1 + 1) * _power(reciprocal2(h2), k2 + 1)
        return product.coefficient(k1, k2)
    raise SeriesError("at most two variables are supported")
