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
genus).  So the logarithm is taken once per call, the power sums are
computed once per partition (they add over the two partitions of a
pair), and each pair costs one O(n^2) exponential.  The hook form uses
log F and the power sums of the hook lengths; when it sums Z it goes
one step further, since the exponential of a pair's power sums is the
product of the two partitions' exponentials: one O(N^2) exponential
per two-row partition, summed with its Schur polynomial by size, and
one convolution of those sums per level, with no loop over pairs.

Two independent constructions of Z are provided: the direct fixed-point
sum (``z_series_hookform``) and a coefficient-extraction route through
a bivariate auxiliary series (``z_series_residue``), which reads every
coefficient it needs off one Horner composition, one two-variable
product and the one-variable powers of F, rather than forming a
two-variable product per coefficient.  They must agree, and the
closed form in ``closedform`` must agree with both; that triple
agreement is the package's central correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .partitions import (
    Partition,
    c_prime_product,
    enumerate_partitions,
    hook_multiset,
    hook_product,
    weight_multiset,
)
from .series import (
    InsufficientOrderError,
    Series1,
    Series2,
    compose,
    divide_by_x_minus_y,
    negate_argument,
    reciprocal,
    series_exp,
    series_log,
    shift_up,
)
from .symfun import schur_two_vars


@dataclass(frozen=True)
class FixedPointBasisVector:
    """A fixed point of the circle action, indexed by two partitions."""

    lambda0: Partition
    lambda1: Partition

    @property
    def level(self) -> int:
        return self.lambda0.size + self.lambda1.size

    def __str__(self) -> str:
        return f"[{self.lambda0}, {self.lambda1}]"


@dataclass(frozen=True)
class EquivariantClassVector:
    """A class at level n expanded over the fixed-point basis.

    ``entries`` keeps the deterministic enumeration order of
    ``level_pairs``; use ``as_dict`` for order-independent lookups.
    """

    n: int
    entries: tuple[tuple[FixedPointBasisVector, Fraction], ...]

    def as_dict(self) -> dict[FixedPointBasisVector, Fraction]:
        return dict(self.entries)

    def coefficient(self, pair: FixedPointBasisVector) -> Fraction:
        for key, value in self.entries:
            if key == pair:
                return value
        raise KeyError(f"{pair} is not a level-{self.n} basis vector")


def level_pairs(n: int) -> tuple[FixedPointBasisVector, ...]:
    """All partition pairs with sizes summing to n, in a fixed order.

    The first partition's size descends from n to 0; within a size,
    partitions come in reverse lexicographic order.
    """
    pairs = []
    for size0 in range(n, -1, -1):
        for lambda0 in enumerate_partitions(size0):
            for lambda1 in enumerate_partitions(n - size0):
                pairs.append(FixedPointBasisVector(lambda0, lambda1))
    return tuple(pairs)


def tangent_weights(pair: FixedPointBasisVector, gamma: int) -> tuple[int, ...]:
    """Tangent weights of the Hilbert scheme at the fixed point.

    The component supported at the zero section's negative fixed point
    contributes the weight multiset of lambda0 at (-1, -1); the other
    fixed point contributes that of lambda1 at (gamma - 1, 1).
    """
    combined = weight_multiset(pair.lambda0, -1, -1) + weight_multiset(pair.lambda1, gamma - 1, 1)
    return tuple(sorted(combined))


def _power_sums(values: Sequence[int], n: int) -> tuple[int, ...]:
    """The power sums p_1, ..., p_n of a multiset of integers."""
    return tuple(sum(v**k for v in values) for k in range(1, n + 1))


def _product_coefficient(log_f: Series1, sums0: Sequence[int], sums1: Sequence[int], n: int):
    """[u^n] of the product of f(w u) over two multisets with the given power sums.

    The product is exp(sum over k of L_k (p_k + q_k) u^k) with L = log f.
    """
    L = log_f.coefficients
    exponent = (log_f.ring.zero,) + tuple(L[k] * (sums0[k - 1] + sums1[k - 1]) for k in range(1, n + 1))
    return series_exp(Series1(exponent, n, log_f.ring)).coefficient(n)


def _fixed_point_data(partition: Partition, alpha, beta, n: int) -> tuple[tuple[int, ...], Fraction]:
    """Weight power sums up to degree n and primed cell product of one diagram."""
    sums = _power_sums(weight_multiset(partition, alpha, beta), n)
    return sums, c_prime_product(partition, alpha, beta)


def _pair_value(log_f: Series1, pair: FixedPointBasisVector, gamma: int, data0, data1):
    sums0, c0 = data0
    sums1, c1 = data1
    denominator = c0 * c1
    if denominator == 0:
        raise ValueError(
            f"degenerate fixed-point denominator for {pair} at gamma={gamma}"
        )
    return _product_coefficient(log_f, sums0, sums1, pair.level) / denominator


def pair_coefficient(f: Series1, pair: FixedPointBasisVector, gamma: int) -> Fraction:
    """Coefficient of one fixed-point basis vector at any twist.

    This is the degree-n coefficient in u of the product of f(w u) over
    all tangent weights w, divided by the product of the primed cell
    polynomials of the two partitions, evaluated at (-1, -1) and
    (gamma - 1, 1) respectively.  The class series f must have
    constant term 1.
    """
    n = pair.level
    if f.order < n:
        raise InsufficientOrderError(
            f"insufficient precision: level {n} needs the class series to degree {n}, "
            f"got order {f.order}"
        )
    return _pair_value(
        series_log(f.truncate(n)),
        pair,
        gamma,
        _fixed_point_data(pair.lambda0, -1, -1, n),
        _fixed_point_data(pair.lambda1, gamma - 1, 1, n),
    )


def equivariant_class_coeffs(f: Series1, gamma: int, n: int) -> EquivariantClassVector:
    """Expand the level-n equivariant class over the fixed-point basis."""
    if f.constant_term != f.ring.one:
        raise ValueError("a multiplicative class series must have constant term 1")
    if f.order < n:
        raise InsufficientOrderError(
            f"insufficient precision: level {n} needs the class series to degree {n}, "
            f"got order {f.order}"
        )
    log_f = series_log(f.truncate(n))
    partitions = [p for size in range(n + 1) for p in enumerate_partitions(size)]
    at_zero = {p: _fixed_point_data(p, -1, -1, n) for p in partitions}
    at_infinity = {p: _fixed_point_data(p, gamma - 1, 1, n) for p in partitions}
    entries = tuple(
        (pair, _pair_value(log_f, pair, gamma, at_zero[pair.lambda0], at_infinity[pair.lambda1]))
        for pair in level_pairs(n)
    )
    return EquivariantClassVector(n, entries)


def _hook_data(partition: Partition, n: int) -> tuple[tuple[int, ...], int]:
    """Hook-length power sums up to degree n and hook product of one diagram."""
    return _power_sums(hook_multiset(partition), n), hook_product(partition)


def _hook_value(log_F: Series1, pair: FixedPointBasisVector, data0, data1) -> Fraction:
    sums0, h0 = data0
    sums1, h1 = data1
    sign = -1 if pair.lambda0.size % 2 else 1
    return Fraction(sign) * _product_coefficient(log_F, sums0, sums1, pair.level) / (h0 * h1)


def hook_coefficient(f: Series1, pair: FixedPointBasisVector) -> Fraction:
    """The gamma = 2 fixed-point coefficient in pure hook-length form.

    Equals (-1)^(size of lambda0) times the degree-n u-coefficient of
    the product of F(h(w) u) over all cells of both diagrams, divided by
    the two hook products, where F(u) = f(u) f(-u).  Cross-checked in
    the verification suite against ``pair_coefficient`` at gamma = 2.
    The class series f must have constant term 1.
    """
    n = pair.level
    if f.order < n:
        raise InsufficientOrderError(
            f"insufficient precision: level {n} needs the class series to degree {n}, "
            f"got order {f.order}"
        )
    F = f.truncate(n) * negate_argument(f.truncate(n))
    data0, data1 = _hook_data(pair.lambda0, n), _hook_data(pair.lambda1, n)
    return _hook_value(series_log(F), pair, data0, data1)


def z_series_hookform(f: Series1, N: int) -> Series2:
    """The generating series Z(x, y) by direct fixed-point summation.

    Z collects, level by level, the middle-degree part of the
    multiplicative class with series f, recorded as a two-variable
    polynomial.  Each pair of partitions contributes its hook-length
    coefficient times the product of the two-variable Schur
    specialisations; only two-row partitions enter, because the Schur
    factor of any other vanishes identically.

    The exponential of a pair's hook power sums is the product of the
    exponentials of its two partitions, so each two-row partition gets
    one O(N^2) exponential E = exp(sum of L_k p_k(hooks) u^k) / (hook
    product).  Collecting them by size, S[m][i] = sum over two-row
    partitions of m of E[i] times the Schur row, a homogeneous row of
    degree m, gives row n of Z as the sum over m and i of
    (-1)^m S[m][i] S[n - m][n - i], multiplied as homogeneous
    polynomials.
    """
    if f.order < N:
        raise InsufficientOrderError(
            f"insufficient precision: requested total degree {N}, class series has order {f.order}"
        )
    fN = f.truncate(N)
    log_F = series_log(fN * negate_argument(fN))
    ring = log_F.ring
    zero = ring.zero
    L = log_F.coefficients
    S = []
    for m in range(N + 1):
        by_degree = [[zero] * (m + 1) for _ in range(N + 1)]
        for p in enumerate_partitions(m):
            if p.length > 2:
                continue
            sums, h = _hook_data(p, N)
            exponent = (zero,) + tuple(L[k] * sums[k - 1] for k in range(1, N + 1))
            schur_row = schur_two_vars(p).homogeneous(m)
            for i, e in enumerate(series_exp(Series1(exponent, N, ring)).coefficients):
                if e:
                    e = e / h
                    target = by_degree[i]
                    for j, s in enumerate(schur_row):
                        if s:
                            target[j] += e * s
        S.append(by_degree)
    rows = []
    for n in range(N + 1):
        target = [zero] * (n + 1)
        for m in range(n + 1):
            for i in range(n + 1):
                right = S[n - m][n - i]
                for j0, a in enumerate(S[m][i]):
                    if a:
                        if m % 2:
                            a = -a
                        for j1, b in enumerate(right):
                            if b:
                                target[j0 + j1] += a * b
        rows.append(tuple(target))
    return Series2(tuple(rows), N)


def z_series_residue(f: Series1, N: int) -> Series2:
    """The generating series Z(x, y) by bivariate coefficient extraction.

    Independent of the fixed-point sum: with F(u) = f(u) f(-u) and
    G = u / F(u), the coefficient

        c(r, s) = [a^r b^s] P(a, b) F(a)^(r+1) F(b)^(s+1),  P = G(a - b) G(b - a),

    assembles Z as -1/(x - y)^2 times the sum of (-x)^r (-y)^s c(r, s).
    The division by (x - y)^2 is performed twice by exact synthetic
    division, which is why the class series must be known two degrees
    beyond the requested truncation.

    With M = N + 2, P takes one Horner composition on a - b (M + 1
    two-variable products by the two-term a - b; G(b - a) is its swap)
    and one full two-variable product.  The one-variable powers F^k for
    k <= M + 1 (O(M^3)) then give every c(r, s) in two O(M^3)
    contractions, Q[i][s] = sum over j of P[i][j] [b^(s-j)] F^(s+1) and
    c(r, s) = sum over i of [a^(r-i)] F^(r+1) Q[i][s], instead of a
    two-variable product per cell, which cost O(M^6) in all.
    """
    M = N + 2
    if f.order < M:
        raise InsufficientOrderError(
            f"insufficient precision: requested total degree {N} needs the class "
            f"series to degree {M}, got order {f.order}"
        )
    fM = f.truncate(M)
    F = fM * negate_argument(fM)
    G = shift_up(reciprocal(F).truncate(M - 1), 1)
    ring = F.ring
    zero = ring.zero

    a_minus_b = Series2.from_dict({(1, 0): Fraction(1), (0, 1): Fraction(-1)}, M)
    G_a_minus_b = compose(G, a_minus_b)
    P = G_a_minus_b * G_a_minus_b.swap()
    # F_powers[k] holds the coefficients of F^k.
    power = Series1.one(M, ring)
    F_powers = [power.coefficients]
    for _ in range(M + 1):
        power = power * F
        F_powers.append(power.coefficients)

    # Q[i][s] = [a^i b^s] P(a, b) F(b)^(s+1), for i + s <= M.
    Q = []
    for i in range(M + 1):
        Q_row = []
        for s in range(M + 1 - i):
            column = F_powers[s + 1]
            acc = zero
            for j in range(s + 1):
                p = P.rows[i + j][i]
                if p:
                    acc = acc + p * column[s - j]
            Q_row.append(acc)
        Q.append(Q_row)

    signed = {}
    for r in range(M + 1):
        row = F_powers[r + 1]
        for s in range(M + 1 - r):
            value = zero
            for i in range(r + 1):
                q = Q[i][s]
                if q:
                    value = value + row[r - i] * q
            if value:
                signed[(r, s)] = -value if (r + s) % 2 else value
    summed = Series2.from_dict(signed, M)
    return -divide_by_x_minus_y(divide_by_x_minus_y(summed))
