"""The series kernels on ring elements, kept as test oracles.

The package runs its series kernels, Horner's ``compose`` among them,
on numerators over one common denominator (``Ring.split`` and
``Ring.join``).  These are the bodies they replaced, which do every
coefficient operation on ring elements (``Fraction`` or
``DualNumber``), one normalisation each; the kernels must agree with
them exactly.  The log recurrence here also keeps its two-variable
branch, which the package no longer has: the log-exp check of
``verification`` tests E(Z) = Z E(R) instead of taking log Z, and
``compose`` keeps its one-variable form.

``Series1`` and ``Series2`` offer only the products and the constant
added to a ``Series2`` that the package calls, so the ring-element
sums, sign flips and scalar multiples the oracles build from are
``zero``, ``monomial``, ``add``, ``negate`` and ``scale`` here, and a
``Series2`` given by its entries is ``series2_from_dict``.  Every series
is built by its constructor, with an explicit order; ``one`` and
``identity`` are the series 1 and x.  ``shift_down`` divides by a power
of x, which only the oracles do: the package inverts x / phi from phi.
"""

from __future__ import annotations

from math import comb
from typing import Any, Sequence

from hilbfock.rings import QQ, Ring
from hilbfock.series import InsufficientOrderError, Series1, Series2, SeriesError, split_rows


def zero(kind: type, order: int, ring: Ring = QQ):
    """The zero ``Series1`` or ``Series2`` of the given order."""
    return kind((), order, ring)


def one(order: int, ring: Ring = QQ) -> Series1:
    """The series 1, truncated after degree ``order``."""
    return Series1((ring.one,), order, ring)


def identity(order: int, ring: Ring = QQ) -> Series1:
    """The series x, truncated after degree ``order``."""
    return Series1((ring.zero, ring.one), order, ring)


def monomial(coefficient: Any, exponent: int, order: int, ring: Ring = QQ) -> Series1:
    """coefficient * x^exponent, truncated after degree ``order``."""
    return Series1((ring.zero,) * exponent + (coefficient,), order, ring)


def series2_from_dict(entries: dict, order: int, ring: Ring = QQ) -> Series2:
    """The ``Series2`` with entries[(i, j)] at x^i y^j; entries beyond
    the order are dropped."""
    rows = [[ring.zero] * (d + 1) for d in range(order + 1)]
    for (i, j), value in entries.items():
        if i + j <= order:
            rows[i + j][i] = value
    return Series2(tuple(map(tuple, rows)), order, ring)


def shift_down(series: Series1, k: int) -> Series1:
    """Divide by x^k; the low coefficients must vanish."""
    if k < 0:
        raise SeriesError("shift amount must be non-negative")
    if k > series.order:
        raise InsufficientOrderError("insufficient precision: shift exceeds the truncation order")
    ring = series.ring
    if any(c != ring.zero for c in series.coefficients[:k]):
        raise SeriesError(f"series is not divisible by x^{k}")
    return Series1(series.coefficients[k:], series.order - k, ring)


def _map(series, function):
    """The series with ``function`` applied to every coefficient."""
    if isinstance(series, Series1):
        return Series1(tuple(map(function, series.coefficients)), series.order, series.ring)
    return Series2(tuple(tuple(map(function, row)) for row in series.rows), series.order, series.ring)


def negate(series):
    return _map(series, lambda c: -c)


def scale(series, factor: Any):
    """The series times a constant of its ring."""
    factor = series.ring.coerce(factor)
    return _map(series, lambda c: c * factor)


def add(left, right):
    """The sum of two series of one kind over one ring, to the smaller
    order, or a series plus a constant of its ring."""
    ring = left.ring
    if not isinstance(right, (Series1, Series2)):
        if isinstance(left, Series2):
            return left + right
        return Series1((left.constant_term + ring.coerce(right),) + left.coefficients[1:], left.order, ring)
    if type(right) is not type(left) or right.ring is not ring:
        raise SeriesError("operands are series of different kinds or over different rings")
    n = min(left.order, right.order)
    if isinstance(left, Series1):
        return Series1(tuple(a + b for a, b in zip(left.coefficients, right.coefficients)), n, ring)
    return Series2(tuple(tuple(a + b for a, b in zip(*rows)) for rows in zip(left.rows, right.rows)), n, ring)


def multiply1(left: Series1, right: Series1) -> Series1:
    n = min(left.order, right.order)
    out = [left.ring.zero] * (n + 1)
    for i, a in enumerate(left.coefficients[: n + 1]):
        if not a:
            continue
        for j in range(n + 1 - i):
            b = right.coefficients[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return Series1(tuple(out), n, left.ring)


def multiply2(left: Series2, right: Series2) -> Series2:
    n = min(left.order, right.order)
    out = [[left.ring.zero] * (d + 1) for d in range(n + 1)]
    for d1 in range(n + 1):
        row1 = left.rows[d1]
        for i1 in range(d1 + 1):
            a = row1[i1]
            if not a:
                continue
            for d2 in range(n + 1 - d1):
                row2 = right.rows[d2]
                target = out[d1 + d2]
                for i2 in range(d2 + 1):
                    b = row2[i2]
                    if b:
                        target[i1 + i2] = target[i1 + i2] + a * b
    return Series2(tuple(tuple(row) for row in out), n, left.ring)


def compose(outer: Series1, inner: Series1 | Series2):
    """Horner's scheme on ring elements: one series product per outer
    coefficient, result = result * inner + outer_k from k = n down to 0."""
    if inner.constant_term != inner.ring.zero:
        raise SeriesError("composition requires the inner series to have zero constant term")
    multiply = multiply2 if isinstance(inner, Series2) else multiply1
    n = min(outer.order, inner.order)
    result = zero(type(inner), n, outer.ring)
    truncated_inner = inner.truncate(n)
    for k in range(n, -1, -1):
        result = add(multiply(result, truncated_inner), outer.coefficients[k])
    return result


def reciprocal(series: Series1) -> Series1:
    ring = series.ring
    inv0 = ring.one / series.constant_term
    n = series.order
    out = [inv0] + [ring.zero] * n
    for k in range(1, n + 1):
        acc = ring.zero
        for i in range(1, k + 1):
            a = series.coefficients[i]
            if a:
                acc = acc + a * out[k - i]
        out[k] = -inv0 * acc
    return Series1(tuple(out), n, ring)


def power_table(g: Series1) -> tuple[Series1, ...]:
    powers = [one(g.order, g.ring), g]
    for _ in range(1, g.order):
        powers.append(multiply1(powers[-1], g))
    return tuple(powers[: g.order + 1])


def power_numerators(g: Series1) -> tuple[list[list], int]:
    """``power_table(g)`` as the numerator table (T, t) of
    ``series.compositional_inverse``: T[a][i - a] / t is [x^i] g^a."""
    return split_rows(g.ring, [p.coefficients[a:] for a, p in enumerate(power_table(g))])


def joined_powers(powers: tuple[list[list], int], ring: Ring) -> tuple[Series1, ...]:
    """The numerator table (T, t) of ``series.compositional_inverse`` as
    the series g^0, ..., g^n."""
    T, t = powers
    return tuple(Series1((ring.zero,) * a + ring.join(row, t), len(T) - 1, ring) for a, row in enumerate(T))


def joined_rows(rows: Sequence[Sequence], denominator: int, ring: Ring) -> Series2:
    """Numerator rows by total degree over one denominator as a Series2."""
    return Series2(tuple(ring.join(row, denominator) for row in rows), len(rows) - 1, ring)


def compositional_inverse(series: Series1) -> tuple[Series1, tuple[Series1, ...]]:
    """Lagrange inversion of G = ``series`` with ring-element products,
    and the round-trip check G(g(x)) = x: the oracle of
    ``series.compositional_inverse``, which takes phi = x / G instead."""
    ring = series.ring
    n = series.order
    phi = reciprocal(shift_down(series, 1))
    power = phi
    coeffs = [ring.zero, phi.coefficients[0]]
    for m in range(2, n + 1):
        power = multiply1(power, phi)
        coeffs.append(power.coefficients[m - 1] / ring.coerce(m))
    result = Series1(tuple(coeffs), n, ring)
    powers = power_table(result)
    composite = [ring.zero] * (n + 1)
    for a, c in enumerate(series.coefficients):
        if c:
            for i, p in enumerate(powers[a].coefficients[a:], a):
                composite[i] = composite[i] + c * p
    if tuple(composite) != identity(n, ring).coefficients:
        raise RuntimeError("compositional inverse failed its round-trip check")
    return result, powers


def congruence(matrix: Series2, table: Sequence[Sequence]) -> Series2:
    ring = matrix.ring
    zero = ring.zero
    n = min(matrix.order, len(table[0]) - 1)
    entries = matrix.rows
    half = []
    for a in range(n + 1):
        row = [zero] * (n - a + 1)
        for b in range(n - a + 1):
            c = entries[a + b][a]
            if not c:
                continue
            power = table[b]
            for j in range(b, n - a + 1):
                p = power[j]
                if p:
                    row[j] = row[j] + c * p
        half.append(row)
    rows = [[zero] * (d + 1) for d in range(n + 1)]
    for a in range(n + 1):
        power = table[a]
        for i in range(a, n + 1):
            p = power[i]
            if not p:
                continue
            for j, h in enumerate(half[a][: n - i + 1]):
                if h:
                    rows[i + j][i] = rows[i + j][i] + p * h
    return Series2(tuple(tuple(row) for row in rows), n, ring)


def compose_difference(outer: Series1, powers: tuple[Series1, ...]) -> Series2:
    ring = outer.ring
    rows = tuple(
        tuple(c * ring.coerce(comb(d, a) * (-1) ** (d - a)) for a in range(d + 1))
        for d, c in enumerate(outer.coefficients)
    )
    return congruence(Series2(rows, outer.order, ring), [p.coefficients for p in powers])


def divide_by_x_minus_y(series: Series2) -> Series2:
    ring = series.ring
    zero = ring.zero
    if series.rows[0][0] != zero:
        raise SeriesError("not divisible by (x - y)")
    out_rows = []
    for d in range(1, series.order + 1):
        c = series.rows[d]
        b = [zero] * d
        b[d - 1] = c[d]
        for j in range(d - 1, 0, -1):
            b[j - 1] = c[j] + b[j]
        if c[0] + b[0] != zero:
            raise SeriesError("not divisible by (x - y)")
        out_rows.append(tuple(b))
    return Series2(tuple(out_rows), series.order - 1, ring)


def pair_log_entries(
    G: Series1, powers: tuple[Series1, ...], N: int, outer_log: Series1 | None = None
) -> dict:
    """The mixed coefficients of a bivariate log built out of g = G^(-1),
    from the powers of g on ring elements: the oracle of
    ``closedform._power_tables``, which reads them off the powers of
    x / G with no inversion.

    With d = g(x) - g(y), collects [x^k y^l] of log(d / (x - y)), less
    outer_log(d) when given, over k >= l >= 1 and k + l <= N.  These are
    the Grunsky coefficients of g, read off the identity

        d/dx d/dy log(d / (x - y)) = (g'(x) g'(y) D(g(x), g(y)) - 1) / (x - y)^2

    with D(u, v) = ((G(u) - G(v)) / (u - v))^2, which holds because
    x - y = G(g(x)) - G(g(y)).  Since g' g^a = (g^(a+1))' / (a+1), the
    numerator is (i+1)(j+1) times the congruence of D[a][b] / ((a+1)(b+1))
    on the table [x^(i+1)] g^(a+1).  G and its powers must have order
    N + 1.
    """
    if N < 2:
        return {}
    ring = G.ring
    padded = Series1(G.coefficients, N + 2, ring)
    square = multiply1(padded, padded).coefficients
    G_c = padded.coefficients
    rows = []
    for d in range(N + 3):
        row = [-2 * G_c[i] * G_c[d - i] for i in range(d + 1)]
        row[0] = row[0] + square[d]
        row[d] = row[d] + square[d]
        rows.append(row)
    D = divide_by_x_minus_y(divide_by_x_minus_y(Series2(tuple(rows), N + 2, ring)))
    scaled = Series2(
        tuple(
            tuple(c / ((a + 1) * (d - a + 1)) for a, c in enumerate(row))
            for d, row in enumerate(D.rows)
        ),
        N,
        ring,
    )
    shifted = [power.coefficients[1:] for power in powers[1 : N + 2]]
    product = congruence(scaled, shifted)
    numerator = [
        [c * ((i + 1) * (d - i + 1)) for i, c in enumerate(row)]
        for d, row in enumerate(product.rows)
    ]
    numerator[0][0] = numerator[0][0] + -ring.one
    H = divide_by_x_minus_y(divide_by_x_minus_y(Series2(tuple(numerator), N, ring)))
    entries = {
        (k, total - k): H.rows[total - 2][k - 1] / (k * (total - k))
        for total in range(2, N + 1)
        for k in range((total + 1) // 2, total)
    }
    if outer_log is not None:
        composite = compose_difference(outer_log.truncate(N), powers).rows
        for (k, l) in entries:
            entries[(k, l)] = entries[(k, l)] + -composite[k + l][k]
    return entries


def in_x(series: Series1) -> Series2:
    """f(x) as a two-variable series (y never appears)."""
    zero = series.ring.zero
    rows = tuple((zero,) * d + (c,) for d, c in enumerate(series.coefficients))
    return Series2(rows, series.order, series.ring)


def in_y(series: Series1) -> Series2:
    """f(y) as a two-variable series (x never appears)."""
    return in_x(series).swap()


def scale_argument(series: Series1, factor: Any) -> Series1:
    """x -> factor * x, one ring power of the factor per coefficient."""
    ring = series.ring
    factor = ring.coerce(factor)
    values = []
    power = ring.one
    for c in series.coefficients:
        values.append(c * power)
        power = power * factor
    return Series1(tuple(values), series.order, ring)


def series_log(series: Series1 | Series2):
    """Logarithm of a series with constant term one, on ring elements.

    One variable: L = log f solves f L' = f', so
    m L_m = m f_m - sum over 1 <= k < m of k L_k f_(m-k).  Two
    variables: the same recurrence with the Euler operator
    x d/dx + y d/dy in place of the derivative, which multiplies the
    homogeneous row of total degree d by d, so
    d L_d = d S_d - sum over 1 <= e < d of e L_e S_(d-e), with the rows
    multiplied as homogeneous polynomials.
    """
    ring = series.ring
    if series.constant_term != ring.one:
        raise SeriesError("log requires constant term 1")
    if isinstance(series, Series1):
        n = series.order
        f = series.coefficients
        weighted = [ring.zero] * (n + 1)
        for m in range(1, n + 1):
            acc = ring.coerce(m) * f[m]
            for k in range(1, m):
                a = f[m - k]
                if a:
                    acc = acc + -(weighted[k] * a)
            weighted[m] = acc
        out = [ring.zero] + [weighted[m] / ring.coerce(m) for m in range(1, n + 1)]
        return Series1(tuple(out), n, ring)
    n = series.order
    rows = series.rows
    weighted = [(ring.zero,)]
    for d in range(1, n + 1):
        acc = [ring.coerce(d) * c for c in rows[d]]
        for e in range(1, d):
            factor = rows[d - e]
            for p, a in enumerate(weighted[e]):
                if not a:
                    continue
                for q, b in enumerate(factor):
                    if b:
                        acc[p + q] = acc[p + q] + -(a * b)
        weighted.append(acc)
    out = [weighted[0]] + [
        tuple(c / ring.coerce(d) for c in weighted[d]) for d in range(1, n + 1)
    ]
    return Series2(tuple(out), n, ring)
