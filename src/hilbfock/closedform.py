"""Closed-form coefficient tables for Hilbert schemes of points.

For a multiplicative characteristic class with defining series f, the
integrals of the class over Hilbert schemes of points on the relevant
surfaces are governed by a single change of variables: the
compositional inverse g of G(z) = z / (f(z) f(-z)).  Everything in this
module is a corollary of that fact.

Three families of coefficients are produced.

* ``a_k_table`` and ``a_kl_table``: the raw one- and two-index
  coefficients read off from g and from the mixed coefficients of a
  bivariate logarithm built out of g, which are its Grunsky
  coefficients and come from an identity for the mixed second
  derivative of that log, with no two-variable log or product;
  ``tangent_tables`` returns both from one inversion.  These feed the
  generating series ``z_closed`` and must match the localisation sums
  exactly.  They run on the numerator kernels of ``series``, and take
  the one log of the package, ``series_log``, of f(z) f(-z).
* ``chern_character_tables`` and ``corollary_via_dual``: the Chern
  character specialisation, once through explicit factorial formulas
  and once through dual-number (square-zero) coefficients, which acts
  as an independent derivation of the same numbers.
* ``to_universal`` and ``taut_tables``: the conversion to the
  coefficients that multiply creation-operator monomials in the Fock
  space picture, and the variant tables for the rank-one tautological
  bundle.

All arithmetic is exact.  Functions accept series over the rational
field or over the dual numbers; preconditions on the truncation order
are documented per function.  Each function truncates the class series
to the order it needs first, and ``truncate`` raises
InsufficientOrderError for a shorter series rather than returning
silently wrong tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .rings import DUALS, DualNumber, Frozen
from .series import (
    InsufficientOrderError,
    InternalCheckError,
    Series1,
    Series2,
    check_class_series,
    compose_difference_numerators,
    compositional_inverse,
    congruence_numerators,
    convolve_numerators,
    differentiate,
    divide_numerators_by_x_minus_y,
    multiply_graded_rows,
    negate_argument,
    reciprocal,
    series_log,
    shift_up,
)

KIND_THEOREM = "theorem_a_kl"
KIND_UNIVERSAL = "universal_a_kl"
KIND_CHERN_CHARACTER = "chern_character"
KIND_TAUTOLOGICAL = "tautological"

ALL_KINDS = (KIND_THEOREM, KIND_UNIVERSAL, KIND_CHERN_CHARACTER, KIND_TAUTOLOGICAL)

# Tables of these kinds vanish in odd total degree; the tautological
# tables do not (their g is not an odd series).
_EVEN_KINDS = frozenset({KIND_THEOREM, KIND_UNIVERSAL, KIND_CHERN_CHARACTER})


class CoeffTable(Frozen):
    """Coefficients indexed by pairs (k, l) with k >= l >= 1.

    Only the k >= l half is stored; the full table is the symmetric
    extension.  ``kind`` records which construction produced the table,
    and for every kind except the tautological one the entries of odd
    total degree must vanish, which is checked on construction: a table
    that breaks it raises InternalCheckError.
    """

    __slots__ = ("kind", "max_degree", "entries")

    def __init__(
        self, kind: str, max_degree: int, entries: Mapping[tuple[int, int], Fraction | DualNumber]
    ) -> None:
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown coefficient table kind: {kind!r}")
        for (k, l), value in entries.items():
            if not (isinstance(k, int) and isinstance(l, int) and k >= l >= 1):
                raise ValueError(f"bad table index {(k, l)}: need integers k >= l >= 1")
            if k + l > max_degree:
                raise ValueError(f"table index {(k, l)} exceeds max degree {max_degree}")
            if kind in _EVEN_KINDS and (k + l) % 2 and value != 0:
                raise InternalCheckError(
                    f"entry {(k, l)} of odd total degree must vanish in a {kind} table"
                )
        super().__init__(kind, max_degree, entries)

    def value(self, k: int, l: int) -> Fraction | DualNumber:
        """Symmetric lookup: value(k, l) == value(l, k).  An index below 1
        raises ValueError, a total degree beyond ``max_degree``
        InsufficientOrderError."""
        if k < l:
            k, l = l, k
        if l < 1:
            raise ValueError(f"bad table index {(k, l)}: need indices >= 1")
        if k + l > self.max_degree:
            raise InsufficientOrderError(
                f"insufficient precision: entry {(k, l)} has total degree {k + l}, "
                f"the table stops at {self.max_degree}"
            )
        return self.entries[(k, l)]


def _factorial_series(coefficient: Callable[[int], Fraction], order: int) -> Series1:
    """The series with coefficient(k) at x^k for 0 <= k <= order."""
    return Series1(tuple(map(coefficient, range(order + 1))), order)


# The analytic presets are reciprocals of series with factorial
# coefficients, times cosh x for l-genus; (1 - k % 2) keeps the even k.
_PRESET_BUILDERS = {
    "trivial": lambda order: Series1((Fraction(1),), order),
    "chern-total": lambda order: Series1((Fraction(1), Fraction(1)), order),
    # x / (1 - e^(-x)) = 1 / (sum of (-x)^k / (k+1)!)
    "todd": lambda order: reciprocal(
        _factorial_series(lambda k: Fraction((-1) ** k, math.factorial(k + 1)), order)
    ),
    # x / tanh x = cosh x / (sinh x / x)
    "l-genus": lambda order: (
        _factorial_series(lambda k: Fraction(1 - k % 2, math.factorial(k)), order)
        * reciprocal(_factorial_series(lambda k: Fraction(1 - k % 2, math.factorial(k + 1)), order))
    ),
    # (x/2) / sinh(x/2) = 1 / (sum of (x/2)^(2j) / (2j+1)!)
    "a-hat": lambda order: reciprocal(
        _factorial_series(lambda k: Fraction(1 - k % 2, 2**k * math.factorial(k + 1)), order)
    ),
}

PRESET_NAMES = tuple(_PRESET_BUILDERS)


def preset_class(name: str, order: int) -> Series1:
    """The defining series of a built-in class, truncated at ``order``.

    A multiplicative class is its series f: the class of a bundle is
    the product of f at the Chern roots, and f has constant term 1."""
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown class preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return builder(order)


def big_g(f: Series1) -> Series1:
    """G(z) = z / (f(z) f(-z)), an odd series with linear coefficient 1."""
    check_class_series(f)
    if f.order < 1:
        raise InsufficientOrderError(
            "insufficient precision: at least the linear coefficient of f is needed"
        )
    F = f * negate_argument(f)
    return shift_up(reciprocal(F).truncate(f.order - 1), 1)


def small_g(f: Series1, N: int) -> Series1:
    """The compositional inverse of big_g(f), truncated at order N.

    Needs f to degree N.
    """
    return compositional_inverse(big_g(f.truncate(N)))[0]


def a_k_table(f: Series1, N: int) -> dict[int, Fraction]:
    """The single-index coefficients a_k = [x^k] g / k for 1 <= k <= N.

    Needs f to degree N, as ``small_g`` does.
    """
    return _a_k(small_g(f, N), N)


def _a_k(g: Series1, N: int) -> dict[int, Fraction]:
    """a_k = [x^k] g / k for 1 <= k <= N, over lcm(1, ..., N) and one join."""
    ring = g.ring
    L = math.lcm(*range(1, N + 1))
    numerators, d = ring.split(g.truncate(N).coefficients[1:])
    values = ring.join([v * (L // k) for k, v in enumerate(numerators, 1)], d * L)
    return dict(enumerate(values, 1))


def _pair_log_entries(
    G: Series1, powers: tuple[list[list], int], N: int, outer_log: Series1 | None = None
) -> dict:
    """The mixed coefficients of a bivariate log built out of g = G^(-1).

    With d = g(x) - g(y), collects [x^k y^l] of log(d / (x - y)), less
    outer_log(d) when given, over k >= l >= 1 and k + l <= N.  These are
    the Grunsky coefficients of g, read off the identity

        d/dx d/dy log(d / (x - y)) = (g'(x) g'(y) D(g(x), g(y)) - 1) / (x - y)^2

    with D(u, v) = ((G(u) - G(v)) / (u - v))^2, which holds because
    x - y = G(g(x)) - G(g(y)).  D costs one square of G and two
    divisions by (u - v).  Since g' g^a = (g^(a+1))' / (a+1), the
    numerator is (i+1)(j+1) times the congruence of
    D[a][b] / ((a+1)(b+1)) on the table [x^(i+1)] g^(a+1), which is T[1:]
    for the powers (T, t) of g from ``compositional_inverse``, so no
    two-variable product or log is formed.  All of it, outer_log(d)
    too, runs on numerators, and one join forms the entries.  G and its
    powers must have order N + 1.
    """
    if N < 2:
        return {}
    ring = G.ring
    # (G(u) - G(v))^2 to total degree N + 2, on numerators over d^2.
    # G_0 = 0, so the padded zero at degree N + 2 never meets a nonzero
    # coefficient.
    G_n, d = ring.split(Series1(G.coefficients, N + 2, ring).coefficients)
    square = convolve_numerators(G_n, G_n, N + 2)
    rows = []
    for e in range(N + 3):
        row = [-2 * G_n[i] * G_n[e - i] for i in range(e + 1)]
        row[0] += square[e]
        row[e] += square[e]
        rows.append(row)
    # With L = lcm(1, ..., N + 1), the factors 1 / ((a + 1)(b + 1)) of D
    # and 1 / (k l) of the entries become integers over L^2.
    L = math.lcm(*range(1, N + 2))
    D = divide_numerators_by_x_minus_y(divide_numerators_by_x_minus_y(rows))
    scaled = [
        [c * (L // (a + 1)) * (L // (e - a + 1)) for a, c in enumerate(row)]
        for e, row in enumerate(D[: N + 1])
    ]
    T, t = powers
    product = congruence_numerators(scaled, T[1:], N)
    denominator = d * d * L * L * t * t
    for e, row in enumerate(product):
        for i in range(e + 1):
            row[i] *= (i + 1) * (e - i + 1)
    product[0][0] -= denominator
    H = divide_numerators_by_x_minus_y(divide_numerators_by_x_minus_y(product))
    pairs = [(k, total - k) for total in range(2, N + 1) for k in range((total + 1) // 2, total)]
    numerators = [H[k + l - 2][k - 1] * (L // k) * (L // l) for k, l in pairs]
    denominator *= L * L
    if outer_log is not None:
        composite, c = compose_difference_numerators(outer_log.truncate(N), powers)
        common = math.lcm(denominator, c)
        a, b = common // denominator, common // c
        numerators = [v * a - composite[k + l][k] * b for v, (k, l) in zip(numerators, pairs)]
        denominator = common
    return dict(zip(pairs, ring.join(numerators, denominator)))


def tangent_tables(f: Series1, N: int) -> tuple[dict[int, Fraction], CoeffTable]:
    """``a_k_table(f, N)`` and ``a_kl_table(f, N)`` from one inversion.

    The pair table is the mixed part of log( d / ((x - y) F(d)) ) with
    d = g(x) - g(y) and F(z) = f(z) f(-z), taken as
    log(d / (x - y)) - (log F)(d): the log of a composite is the
    composite of the log, so no two-variable reciprocal or product is
    needed.  Like ``a_kl_table``, needs f one degree beyond N.
    """
    fine = f.truncate(N + 1)
    G = big_g(fine)
    g, powers = compositional_inverse(G)
    entries = _pair_log_entries(G, powers, N, series_log(fine * negate_argument(fine)))
    return _a_k(g, N), CoeffTable(KIND_THEOREM, N, entries)


def a_kl_table(f: Series1, N: int) -> CoeffTable:
    """The double-index coefficients, as the mixed coefficients of a log.

    With g = small_g(f) and the difference d = g(x) - g(y), the table
    collects [x^k y^l] log( d / ((x - y) f(d) f(-d)) ) over k >= l >= 1
    and k + l <= N.  The division by (x - y) costs one degree, so the
    class series must be supplied one order beyond N.
    """
    return tangent_tables(f, N)[1]


def z_closed(f: Series1, N: int) -> Series2:
    """The closed form of the generating series Z(x, y).

    Z = g'(x) g'(y) (G(g(x) - g(y)) / (x - y))^2, which the localisation
    module must reproduce by independent means.  G(g(x) - g(y)) is the
    congruence of ``compose_difference_numerators`` on the table of
    powers of g that the inversion returns.  The ratio is divided by
    x - y, squared and multiplied by g'(x) and then by g'(y) on numerator
    rows, each row over its own denominator (``multiply_graded_rows``),
    and each row is joined once.  Needs f one degree beyond N for the
    same reason as ``a_kl_table``.
    """
    fine = f.truncate(N + 1)
    ring = fine.ring
    G = big_g(fine)
    g, powers = compositional_inverse(G)
    difference, c = compose_difference_numerators(G, powers)
    R, r = zip(*(ring.cancel(row, c) for row in divide_numerators_by_x_minus_y(difference)))
    rows, q = multiply_graded_rows(ring, R, r, R, r, N)
    # g'(x) and g'(y) as tables with one entry per row, at x^k and at y^k
    slope, s = zip(*(ring.split((v,)) for v in differentiate(g).coefficients))
    in_x = [[0] * k + v for k, v in enumerate(slope)]
    in_y = [v + [0] * k for k, v in enumerate(slope)]
    rows, q = multiply_graded_rows(ring, rows, q, in_x, s, N)
    rows, q = multiply_graded_rows(ring, rows, q, in_y, s, N)
    return Series2(tuple(map(ring.join, rows, q)), N, ring)


def chern_character_tables(N: int) -> tuple[dict[int, Fraction], CoeffTable]:
    """Both Chern-character tables from their explicit factorial formulas.

    a_k = 2/k! for odd k and 0 otherwise; in even total degree 2m >= 2,

        a_{k,l} = (2 / (2m)!) * (1 - (-1)^k * binom(2m, k)),

    and every entry of odd total degree is 0.
    """
    a_k = {k: Fraction(2, math.factorial(k)) if k % 2 else Fraction(0) for k in range(1, N + 1)}
    entries = {}
    for total in range(2, N + 1):
        base = Fraction(0 if total % 2 else 2, math.factorial(total))
        for k in range((total + 1) // 2, total):
            sign = -1 if k % 2 else 1
            entries[(k, total - k)] = base * (1 - sign * math.comb(total, k))
    return a_k, CoeffTable(KIND_CHERN_CHARACTER, N, entries)


def corollary_via_dual(n: int) -> CoeffTable:
    """The Chern-character table up to total degree n, by dual numbers.

    Runs the generic ``a_kl_table`` machinery once, over the square-zero
    extension of the rationals, with f = 1 + eps*(x^2 + x^4 + ... + x^n),
    and reads off the eps-parts.  The class of a bundle built from
    f = 1 + eps*x^m equals 1 + eps * m! * (degree-m Chern character):
    expanding the product over Chern roots, eps^2 = 0 kills everything
    except the power sum.  The eps-part is linear in the perturbation
    and graded: scaling x by t scales an entry of total degree k + l by
    t^(k+l) and eps*x^m by t^m, so only x^(k+l) reaches it, and the
    eps-part of an entry of total degree m is divided by m!.  Must agree
    with ``chern_character_tables``; the acceptance suite checks every
    even n up to 12.
    """
    if n < 2 or n % 2:
        raise ValueError("the dual-number route needs an even total degree n >= 2")
    eps = DualNumber(Fraction(0), Fraction(1))
    zero = DUALS.zero
    f = Series1((DUALS.one, zero) + (eps, zero) * (n // 2), n + 1, DUALS)
    table = a_kl_table(f, n)
    entries = {
        (k, l): value.infinitesimal / math.factorial(k + l)
        for (k, l), value in table.entries.items()
    }
    return CoeffTable(KIND_CHERN_CHARACTER, n, entries)


def to_universal(table: CoeffTable) -> CoeffTable:
    """Convert raw pair coefficients to universal (operator-basis) ones.

    The raw table multiplies the unrestricted symmetric double sum; the
    universal table multiplies the k >= l sum carrying an overall
    factor of -2.  Matching the two gives a^{(k,l)} = -a_{k,l} for
    k > l and a^{(k,k)} = -a_{k,k}/2 on the diagonal.
    """
    if table.kind not in (KIND_THEOREM, KIND_CHERN_CHARACTER):
        raise ValueError(f"cannot convert a table of kind {table.kind!r} to universal form")
    entries = {
        (k, l): -value / 2 if k == l else -value
        for (k, l), value in table.entries.items()
    }
    return CoeffTable(KIND_UNIVERSAL, table.max_degree, entries)


def taut_tables(f: Series1, N: int) -> tuple[dict[int, Fraction], CoeffTable]:
    """Coefficient tables for the rank-one tautological bundle.

    Here the change of variables uses the compositional inverse g of
    x / f(-x), and the pair table is the mixed log

        [x^k y^l] log( x y (g(x) - g(y)) / ((x - y) g(x) g(y)) ).

    The quotient x/g(x) is a unit power series, so the whole argument
    is assembled from ordinary truncated series; nothing Laurent-like
    is needed.  Its two factors x/g(x) and y/g(y) only add pure-x and
    pure-y terms to the log, so the mixed entries are read from
    log((g(x) - g(y)) / (x - y)) alone.  No parity or positivity is
    imposed: this g is not odd.
    """
    fine = f.truncate(N + 1)
    check_class_series(fine)
    base = shift_up(reciprocal(negate_argument(fine)).truncate(N), 1)
    g, powers = compositional_inverse(base)
    return _a_k(g, N), CoeffTable(KIND_TAUTOLOGICAL, N, _pair_log_entries(base, powers, N))
