"""Closed-form coefficient tables for Hilbert schemes of points.

For a multiplicative characteristic class with defining series f, the
integrals of the class over Hilbert schemes of points on the relevant
surfaces are governed by a single change of variables: the
compositional inverse g of G(z) = z / (f(z) f(-z)).  Everything in this
module is a corollary of that fact.

Three families of coefficients are produced.

* ``a_k_table`` and ``a_kl_table``: the raw one- and two-index
  coefficients, [x^k] g / k and the mixed coefficients of a bivariate
  logarithm built out of g.  ``tangent_tables`` returns both, read off
  the powers of f(z) f(-z) by Lagrange-Buermann (``_power_tables``),
  with no inversion and no two-variable series; the pair table takes
  the one log of the package, ``series_log``, of f(z) f(-z).  The
  generating series ``z_closed`` inverts x / (f(z) f(-z)) instead and
  composes G, so the check that compares it with the tables shares
  nothing with them but ``power_chain``, and both must match the
  localisation sums exactly.
* ``chern_character_tables`` and ``corollary_via_dual``: the Chern
  character specialisation, once through explicit factorial formulas
  and once through dual-number (square-zero) coefficients, which acts
  as an independent derivation of the same numbers.
* ``to_universal`` and ``taut_tables``: the conversion to the
  coefficients that multiply creation-operator monomials in the Fock
  space picture, and the variant tables for the rank-one tautological
  bundle, from the powers of f(-z) by the same route.

All arithmetic is exact.  Functions accept series over the rational
field or over the dual numbers; preconditions on the truncation order
are documented per function.  Each function reads the class series
through ``check_class_series`` at the order it needs, which raises
InsufficientOrderError for a shorter series rather than returning
silently wrong tables, and ValueError for a constant term other than 1.
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
    differentiate,
    divide_numerators_by_x_minus_y,
    multiply_graded_rows,
    negate_argument,
    power_chain,
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


def _big_f(f: Series1, order: int) -> Series1:
    """F(z) = f(z) f(-z) to degree ``order`` >= 1, from the class series
    f read through ``check_class_series`` at that order."""
    if order < 1:
        raise InsufficientOrderError(
            "insufficient precision: at least the linear coefficient of f is needed"
        )
    f = check_class_series(f, order)
    return f * negate_argument(f)


def big_g(f: Series1) -> Series1:
    """G(z) = z / (f(z) f(-z)), an odd series with linear coefficient 1."""
    return shift_up(reciprocal(_big_f(f, f.order)).truncate(f.order - 1), 1)


def small_g(f: Series1, N: int) -> Series1:
    """The compositional inverse of big_g(f), truncated at order N.

    ``compositional_inverse`` reads it off the powers of F = f(z) f(-z)
    to degree N - 1, with no reciprocal.  Needs f to degree N >= 1.
    """
    return compositional_inverse(_big_f(f, N).truncate(N - 1))[0]


def a_k_table(f: Series1, N: int) -> dict[int, Fraction]:
    """The single-index coefficients a_k = [x^k] g / k for 1 <= k <= N,
    with g from ``small_g``.

    Needs f to degree N, as ``small_g`` does.
    """
    return {k: c / k for k, c in enumerate(small_g(f, N).coefficients[1:], 1)}


def _power_tables(P: Series1, N: int, subtract_log: bool) -> tuple[dict, dict]:
    """a_k and the pair entries of the inverse g of u / P(u), read off
    the powers of P by Lagrange-Buermann, with no inversion.

    [x^k] g^i = (i/k) [u^(k-i)] P^k and [x^k] g^(-m) = -(m/k) [u^(k+m)] P^k.
    With A_k / D_k the numerators and the denominator of P^k from
    ``power_chain``, a_k = [x^k] g / k = A_k[k - 1] / (k^2 D_k), and,
    expanding g'(x) / (g(x) - g(y)) in powers of g(y) / g(x), the
    Grunsky coefficients are

        [x^k y^l] log((g(x) - g(y)) / (x - y))
            = sum over 1 <= m <= l of m A_k[k + m] A_l[l - m] / (k l D_k D_l)

    for k >= l >= 1 and k + l <= N.  ``subtract_log`` takes off the
    mixed part of (log P)(g(x) - g(y)): with W_m = m [u^m] log P over Q,
    it is the sum over 1 <= j <= l of (-1)^j j A_l[l - j] S_k[j] /
    (k l D_k D_l Q), where S_k[j] = sum over 1 <= i <= k of
    A_k[k - i] W_(i+j) C(i+j-1, i-1).  Both sweeps cost O(N^3) and visit
    only the m with A_k[k - m] != 0: P is even for the tangent table, and
    1 for the trivial class.  Each entry is joined once over its own
    denominator.  P is read to degree N.
    """
    ring = P.ring
    P = P.truncate(N)
    A, D = zip(([1], 1), *power_chain(ring, P.coefficients, N))
    a_k = {k: ring.join((A[k][k - 1],), k * k * D[k])[0] for k in range(1, N + 1)}
    live = [[m for m in range(1, k + 1) if A[k][k - m]] for k in range(N + 1)]
    Q = 1
    if subtract_log:
        R, Q = ring.split(series_log(P).coefficients)
        # V[j][i] = W_(i+j) C(i+j-1, i-1) = i C(i+j, i) R_(i+j), over Q
        V = [[R[i + j] * (i * math.comb(i + j, i)) for i in range(N - j + 1)] for j in range(N + 1)]
        # S[k][j] for the j <= min(k, N - k) that the entries read
        S = [
            [sum(A[k][k - i] * V[j][i] for i in live[k]) for j in range(min(k, N - k) + 1)]
            for k in range(N)
        ]
    entries = {}
    for total in range(2, N + 1):
        for k in range((total + 1) // 2, total):
            l = total - k
            Ak, Al = A[k], A[l]
            value = sum(Ak[k + m] * Al[l - m] * m for m in live[l]) * Q
            if subtract_log:
                value += sum(S[k][j] * Al[l - j] * (j if j % 2 else -j) for j in live[l])
            entries[(k, l)] = ring.join((value,), k * l * D[k] * D[l] * Q)[0]
    return a_k, entries


def tangent_tables(f: Series1, N: int) -> tuple[dict[int, Fraction], CoeffTable]:
    """``a_k_table(f, N)`` and ``a_kl_table(f, N)`` from the powers of
    F(u) = f(u) f(-u), with no inversion (``_power_tables``).

    The pair table is the mixed part of log( d / ((x - y) F(d)) ) with
    d = g(x) - g(y), taken as log(d / (x - y)) - (log F)(d).  The route
    reads f to degree N only; asking for f one degree beyond N, as
    ``z_closed`` needs, is the public precision contract of the tables.
    """
    a_k, entries = _power_tables(_big_f(f, N + 1), N, subtract_log=True)
    return a_k, CoeffTable(KIND_THEOREM, N, entries)


def a_kl_table(f: Series1, N: int) -> CoeffTable:
    """The double-index coefficients, as the mixed coefficients of a log.

    With g = small_g(f) and the difference d = g(x) - g(y), the table
    collects [x^k y^l] log( d / ((x - y) f(d) f(-d)) ) over k >= l >= 1
    and k + l <= N.  Like ``tangent_tables``, needs f one degree beyond N.
    """
    return tangent_tables(f, N)[1]


def z_closed(f: Series1, N: int) -> Series2:
    """The closed form of the generating series Z(x, y).

    Z = g'(x) g'(y) (G(g(x) - g(y)) / (x - y))^2, which the localisation
    module must reproduce by independent means.  g is the inverse of
    x / F for F = f(z) f(-z), read off the powers of F; ``big_g`` forms
    G, the one reciprocal of the closed form.  G(g(x) - g(y)) is the
    congruence of ``compose_difference_numerators`` on the table of
    powers of g that the inversion returns.  The ratio is divided by
    x - y, squared and multiplied by g'(x) and then by g'(y) on numerator
    rows, each row over its own denominator (``multiply_graded_rows``),
    and each row is joined once.  Needs f one degree beyond N, since the
    division by x - y costs one degree.
    """
    fine = check_class_series(f, N + 1)
    ring = fine.ring
    G = big_g(fine)
    g, powers = compositional_inverse(_big_f(fine, N + 1).truncate(N))
    difference, c = compose_difference_numerators(G, powers)
    R, r = zip(*(ring.cancel(row, c) for row in divide_numerators_by_x_minus_y(difference)))
    rows, q = multiply_graded_rows(ring, R, r, R, r)
    # g'(x) and g'(y) as tables with one entry per row, at x^k and at y^k
    slope, s = zip(*(ring.split((v,)) for v in differentiate(g).coefficients))
    in_x = [[0] * k + v for k, v in enumerate(slope)]
    in_y = [v + [0] * k for k, v in enumerate(slope)]
    rows, q = multiply_graded_rows(ring, rows, q, in_x, s)
    rows, q = multiply_graded_rows(ring, rows, q, in_y, s)
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

    Its two factors x/g(x) and y/g(y) only add pure-x and pure-y terms
    to the log, so the mixed entries are the Grunsky coefficients of g,
    which ``_power_tables`` reads off the powers of f(-u) with no
    inversion.  The route reads f to degree N only; f one degree beyond
    N is the public precision contract, as for ``tangent_tables``.  No
    parity or positivity is imposed: this g is not odd.
    """
    a_k, entries = _power_tables(negate_argument(check_class_series(f, N + 1)), N, subtract_log=False)
    return a_k, CoeffTable(KIND_TAUTOLOGICAL, N, entries)
