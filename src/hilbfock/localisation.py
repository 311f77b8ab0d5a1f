"""Equivariant localisation sums over pairs of partitions.

The surfaces in play are total spaces of a negative line bundle over
the projective line, carrying a circle action with two isolated fixed
points.  The induced action on the n-th Hilbert scheme of points has
isolated fixed points indexed by pairs of partitions whose sizes add up
to n.  Summing a multiplicative class over those fixed points, weighted
by the tangent weights, expresses the class in the fixed-point basis;
for the self-dual twist (gamma = 2) everything collapses to hook
lengths and can be pushed down to a two-variable generating series
Z(x, y).

A fixed point contributes the degree-n coefficient in u of the product
of f(w u) over its 2n tangent weights w.  With L = log f that product
is exp(sum over k of L_k p_k(W) u^k), where p_k(W) is the k-th power
sum of the weights (Hirzebruch's description of a multiplicative
genus).  The weights of a pair are those of its two diagrams, so the
power sums add and the exponential of the pair is the product of the
two diagrams' exponentials.  So the logarithm is taken once per class
and level, each diagram at each fixed point costs one O(n^2)
exponential, built on first use in the log's row table, and each pair
one O(n) convolution of its two diagrams' rows in ``pair_coefficient``.
``equivariant_class_coeffs`` is ``pair_coefficient`` over a level.

The logarithm and the exponentials run on integers.  The log comes
from ``series.log_numerators``, the weights x f'/f from the triangular
division that also gives ``series.reciprocal``.  With
c the lcm of the denominators of f_1, ..., f_n, its weights scaled to
w_m = m [u^m] log f(c u) are integers, and so are e_0 = 1 and
e_m = sum over 1 <= k <= m of w_k s_k e_(m-k) (m-1)!/(m-k)!.  Then
[u^m] exp(sum of L_k s_k u^k) is e_m / (m! c^m): no step of the
exponential divides, and one ring element is formed per coefficient
asked for, by ``Ring.join``.  ``Ring.split`` gives the numerators and c
for either ring, so dual-number classes run the same recurrences on
``DualNumber``s a + b eps with int parts over the lcm c of the
denominators of both parts.

The hook form uses F(u) = f(u) f(-u), whose log is twice the even part
of log f, and the power sums of the hook lengths; ``_class_log`` forms
the weights of F next to those of f, once per class and level, and c
scales both.  ``hook_coefficient``
takes one exponential of all of a pair's hooks, so it shares no
convolution with ``pair_coefficient``, which it is checked against.
``z_series_hookform`` sums each two-row partition's row with its Schur
polynomial by size as an integer row, and one convolution of those
sums per level replaces the loop over pairs.

Two independent constructions of Z are provided: the direct fixed-point
sum (``z_series_hookform``) and a coefficient-extraction route through
a bivariate auxiliary series (``z_series_residue``), which builds that
series with one Horner composition and then reads every coefficient it
needs off one ``congruence_numerators`` of it with the numerators of
the powers of F, not a two-variable product per coefficient.  They must
agree, and the closed form in ``closedform`` must agree with both; that
triple agreement is the package's central correctness check.  The
closed form runs the same kernel, the fixed-point sum does not.

Each entry point reads the class series through ``check_class_series``
at the order its docstring states, which checks the precision and f(0) = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

from .partitions import (
    Partition,
    c_prime_product,
    enumerate_partitions,
    hook_multiset,
    hook_product,
    weight_multiset,
)
from .rings import Frozen
from .series import (
    InternalCheckError,
    Series1,
    Series2,
    check_class_series,
    compose,
    congruence_numerators,
    divide_by_x_minus_y,
    log_numerators,
    negate_argument,
    power_chain,
    reciprocal,
    shift_up,
    split_rows,
)
from .symfun import schur_two_vars


class FixedPointBasisVector(Frozen):
    """A fixed point of the circle action, indexed by two partitions."""

    __slots__ = ("lambda0", "lambda1")

    @property
    def level(self) -> int:
        return self.lambda0.size + self.lambda1.size

    def __str__(self) -> str:
        return f"[{self.lambda0}, {self.lambda1}]"


def level_pairs(n: int) -> tuple[FixedPointBasisVector, ...]:
    """All partition pairs with sizes summing to n, in a fixed order.

    The first partition's size descends from n to 0; within a size,
    partitions come in reverse lexicographic order.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    pairs = []
    for size0 in range(n, -1, -1):
        for lambda0 in enumerate_partitions(size0):
            for lambda1 in enumerate_partitions(n - size0):
                pairs.append(FixedPointBasisVector(lambda0, lambda1))
    return tuple(pairs)


# The series, the level and the record (c, w, W, rows) of the last call.
_last_log: list = [None, -1, None]


def _class_log(f: Series1, n: int) -> tuple[int, list, list, _DiagramRows]:
    """The scale c, the weights w_m = m [u^m] log f(c u) = c^m R_m / Q
    for m <= n, with R and Q from ``log_numerators`` of f read through
    ``check_class_series`` at n, the weights of F(u) = f(u) f(-u), and
    the table of diagram rows on w that ``pair_coefficient`` fills.

    c is the lcm of the denominators of f_1, ..., f_n, so the weights are
    integers over either ring; a remainder would be a bug here and raises
    InternalCheckError.  log F(u) = log f(u) + log f(-u) is twice the even
    part of log f, so F's weights are 2 w_m at even m and 0 at odd m: no
    product f(u) f(-u) is formed, and c scales F as well.
    The record is kept for the last series (by identity) and level asked
    for: a vector then takes the log once and each row once per level,
    and a cache keyed on the series' hash would cost more than the log,
    since hashing a series hashes every coefficient.
    """
    memo = _last_log
    if memo[0] is not f or memo[1] != n:
        known = check_class_series(f, n)
        R, Q = log_numerators(known)
        c = known.ring.split(known.coefficients)[1]
        w, q = known.ring.cancel([r * c**m for m, r in enumerate(R)], Q)
        if q != 1:
            raise InternalCheckError("internal error: the scaled log weights are not integers")
        memo[:] = f, n, (c, w, [0 if m % 2 else 2 * w_m for m, w_m in enumerate(w)], _DiagramRows(w))
    return memo[2]


def _power_sum_exp(w: Sequence, values: Sequence[int]) -> list:
    """e_0, ..., e_n with e_m / (m! c^m) = [u^m] exp(sum over k of L_k s_k u^k).

    L is the log of the class, s_k is the k-th power sum of the multiset
    ``values``, and w holds the weights of L to degree n scaled by c, as
    ``_class_log`` gives them; w_0 is not read.  With u scaled by c,
    m E_m = sum over k of w_k s_k E_(m-k); times (m - 1)! that is
    e_0 = 1 and e_m = sum over 1 <= k <= m of w_k s_k e_(m-k)
    (m-1)!/(m-k)!, summed by Horner's rule in m - k, so no step divides.
    """
    n = len(w) - 1
    sums = [0] * (n + 1)
    for v in values:
        power = 1
        for k in range(1, n + 1):
            power *= v
            sums[k] += power
    weighted = [0] + [w[k] * sums[k] for k in range(1, n + 1)]
    e = [1]
    for m in range(1, n + 1):
        acc = weighted[m]
        for j in range(1, m):
            t = weighted[m - j]
            acc = acc * j + t * e[j] if t else acc * j
        e.append(acc)
    return e


def _diagram_row(w: Sequence, partition: Partition, alpha, beta) -> tuple[list, int]:
    """The ``_power_sum_exp`` row of one diagram's tangent weights at the
    fixed point (alpha, beta), and its primed cell product."""
    weights = weight_multiset(partition, alpha, beta)
    return _power_sum_exp(w, weights), c_prime_product(partition, alpha, beta)


class _DiagramRows(dict):
    """``_diagram_row`` by (partition, alpha, beta), built on first use."""

    def __init__(self, w: Sequence) -> None:
        self.w = w

    def __missing__(self, key: tuple) -> tuple[list, int]:
        row = self[key] = _diagram_row(self.w, *key)
        return row


def pair_coefficient(f: Series1, pair: FixedPointBasisVector, gamma: int) -> Fraction:
    """Coefficient of one fixed-point basis vector at any twist.

    This is the degree-n coefficient in u of the product of f(w u) over
    all tangent weights w, divided by the product of the primed cell
    polynomials of the two partitions, evaluated at (-1, -1) and
    (gamma - 1, 1) respectively.  The class series f must have
    constant term 1 and be known to degree n.

    With the diagrams' rows (e, d) from ``_class_log``'s table and
    E_i = e_i / (i! c^i), [u^n] E0 E1 is the O(n) sum over i of C(n, i)
    e0_i e1_(n-i) / (n! c^n).  A zero product of factors d0 d1 is a
    degenerate twist: ValueError, naming the pair.
    """
    n = pair.level
    c, _, _, rows = _class_log(f, n)
    e0, d0 = rows[pair.lambda0, -1, -1]
    e1, d1 = rows[pair.lambda1, gamma - 1, 1]
    denominator = d0 * d1
    if denominator == 0:
        raise ValueError(f"degenerate fixed-point denominator for {pair} at gamma={gamma}")
    total = 0
    for i in range(n + 1):
        a, b = e0[i], e1[n - i]
        if a and b:
            total += comb(n, i) * a * b
    scale = denominator * factorial(n) * c**n
    return f.ring.join((total if scale > 0 else -total,), abs(scale))[0]


def equivariant_class_coeffs(
    f: Series1, gamma: int, n: int
) -> tuple[tuple[FixedPointBasisVector, Fraction], ...]:
    """The level-n equivariant class over the fixed-point basis: the
    (pair, ``pair_coefficient``) of each pair, in ``level_pairs(n)``
    order.  The class series must be known to degree n."""
    return tuple((pair, pair_coefficient(f, pair, gamma)) for pair in level_pairs(n))


def hook_coefficient(f: Series1, pair: FixedPointBasisVector) -> Fraction:
    """The gamma = 2 fixed-point coefficient in pure hook-length form.

    Equals (-1)^(size of lambda0) times the degree-n u-coefficient of
    the product of F(h u) over the hook lengths h of both diagrams,
    divided by the two hook products, where F(u) = f(u) f(-u): one
    exponential of all the hooks' power sums, with no per-diagram rows.
    The class series f must have constant term 1 and be known to
    degree n.
    """
    n = pair.level
    c, _, w, _ = _class_log(f, n)
    hooks = hook_multiset(pair.lambda0) + hook_multiset(pair.lambda1)
    e = _power_sum_exp(w, hooks)[n]
    scale = factorial(n) * c**n * hook_product(pair.lambda0) * hook_product(pair.lambda1)
    return f.ring.join((-e if pair.lambda0.size % 2 else e,), scale)[0]


def z_series_hookform(f: Series1, N: int) -> Series2:
    """The generating series Z(x, y) by direct fixed-point summation.

    Z collects, level by level, the middle-degree part of the
    multiplicative class with series f, recorded as a two-variable
    polynomial.  Each pair of partitions contributes its hook-length
    coefficient times the product of the two-variable Schur
    specialisations; only the two-row partitions (m - j, j) enter, and
    they are built directly, because the Schur factor of any other
    vanishes identically.  The class series must be known to degree N.

    The exponential of a pair's hook power sums is the product of the
    exponentials of its two partitions, so each two-row partition of m
    gets one O(N^2) exponential E = exp(sum of L_k p_k(hooks) u^k) / (hook
    product), with L = log F.  Its integer row e from ``_power_sum_exp``
    has E_i = e_i / (i! c^i h), and h divides m!, so S[m][i], the sum
    over two-row partitions (m - j, j) of m of e_i (m!/h) on the entries
    j..m - j, where their Schur row is 1, is an integer row over
    m! i! c^i.  Row n of Z is the sum over m and i of (-1)^m S[m][i]
    S[n - m][n - i], multiplied as homogeneous polynomials; weighting
    each term by C(n, m) C(n, i) puts it over (n!)^2 c^n, and one
    ``Ring.join`` per row forms the coefficients.
    """
    c, _, w, _ = _class_log(f, N)
    S = []
    for m in range(N + 1):
        by_degree = [[0] * (m + 1) for _ in range(N + 1)]
        for j in range(m // 2 + 1):
            p = Partition((m - j, j))
            tableaux = factorial(m) // hook_product(p)
            schur_row = schur_two_vars(p)
            for i, e in enumerate(_power_sum_exp(w, hook_multiset(p))):
                if e:
                    e = e * tableaux
                    target = by_degree[i]
                    for k, s in enumerate(schur_row):
                        if s:
                            target[k] += e
        S.append(by_degree)
    rows = []
    for n in range(N + 1):
        target = [0] * (n + 1)
        for m in range(n + 1):
            for i in range(n + 1):
                weight = (-1) ** m * comb(n, m) * comb(n, i)
                right = S[n - m][n - i]
                for j0, a in enumerate(S[m][i]):
                    if a:
                        a = a * weight
                        for j1, b in enumerate(right):
                            if b:
                                target[j0 + j1] += a * b
        rows.append(f.ring.join(target, factorial(n) ** 2 * c**n))
    return Series2(tuple(rows), N, f.ring)


def z_series_residue(f: Series1, N: int) -> Series2:
    """The generating series Z(x, y) by bivariate coefficient extraction.

    Independent of the fixed-point sum: with F(u) = f(u) f(-u) and
    G = u / F(u), the coefficient

        c(r, s) = [a^r b^s] P(a, b) F(a)^(r+1) F(b)^(s+1),  P = G(a - b) G(b - a),

    assembles Z as -1/(x - y)^2 times the sum of (-x)^r (-y)^s c(r, s).
    The division by (x - y)^2 is performed twice by exact synthetic
    division, which is why the class series must be known two degrees
    beyond the requested truncation.

    With M = N + 2, G is odd, so P = -Q with Q = (G G)(a - b), whose
    sign cancels the one in front of Z.  Q costs one one-variable square
    and one Horner composition on a - b (M steps that each visit its two
    terms, O(M^3) in all), with no two-variable product.  ``power_chain``
    gives the numerators of F^k for 1 <= k <= M + 1 (O(M^3)), laid out
    over the lcm t of their denominators as T[i][r - i] = t [a^(r-i)]
    F^(r+1), and with Q_ij = [a^i b^j] Q, t^2 c(r, s) is minus the sum
    over i and j of T[i][r - i] Q_ij T[j][s - j]: ``congruence_numerators``,
    two O(M^3) matrix products instead of a two-variable product per
    cell, which cost O(M^6) in all.  The closed form runs the same kernel
    on the powers of g; the fixed-point sum does not, so a fault in the
    kernel still shows in the triple agreement.  Every step runs over the
    ring of f.
    """
    M = N + 2
    fM = check_class_series(f, M)
    F = fM * negate_argument(fM)
    G = shift_up(reciprocal(F).truncate(M - 1), 1)
    ring = f.ring
    # a - b: row 1 lists the coefficients of y and then of x
    a_minus_b = Series2(((), (-ring.one, ring.one)), M, ring)
    C, q = split_rows(ring, compose(G * G, a_minus_b).rows)
    # powers[r] holds the numerators of F^(r+1) over D.
    powers = list(power_chain(ring, F.coefficients, M + 1))
    t = lcm(*(D for _, D in powers))
    T = [[P[r - i] * (t // D) for r, (P, D) in enumerate(powers[i:], i)] for i in range(M + 1)]
    rows = congruence_numerators(C, T)
    signed = [[-v for v in row] if d % 2 else row for d, row in enumerate(rows)]
    Z = Series2(tuple(ring.join(row, q * t * t) for row in signed), M, ring)
    return divide_by_x_minus_y(divide_by_x_minus_y(Z))
