"""The numerator kernels of ``series`` against the ring-element bodies.

Each kernel splits its operands into numerators over one denominator,
runs on the numerators and joins once; ``fraction_kernels`` holds the
bodies it replaced.  They must agree exactly over the rationals (runs
of zeros, negative coefficients, 40-digit heights), over all-integer
series, over the dual numbers, and at order 0.
"""

from fractions import Fraction as Fr
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels as oracle
from fraction_kernels import joined_powers, joined_rows, one, power_numerators
from hilbfock.closedform import _power_tables
from hilbfock.rings import DUALS, QQ, DualNumber
from hilbfock.series import (
    NotInvertibleError,
    Series1,
    Series2,
    SeriesError,
    compose,
    compose_difference_numerators,
    compositional_inverse,
    congruence_numerators,
    convolve_numerators,
    divide_by_x_minus_y,
    multiply_graded_rows,
    power_chain,
    reciprocal,
    series_log,
    shift_up,
    split_rows,
)

ZERO = st.just(Fr(0))
SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)
HUGE = st.builds(Fr, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
INTEGER = st.integers(-50, 50).map(Fr)

ELEMENTS = {
    "rational": st.one_of(ZERO, SMALL, HUGE, INTEGER),
    "integer": st.one_of(ZERO, INTEGER),
    "dual": st.one_of(
        ZERO.map(DualNumber), st.builds(DualNumber, st.one_of(ZERO, SMALL, HUGE), SMALL)
    ),
}
RINGS = {"rational": QQ, "integer": QQ, "dual": DUALS}
KINDS = sorted(ELEMENTS)


def values(kind, max_size=8):
    """Up to max_size coefficients, with runs of zeros between single entries."""
    pieces = st.one_of(
        ELEMENTS[kind].map(lambda c: [c]),
        st.integers(2, 4).map(lambda k: [Fr(0)] * k),
    )
    return st.lists(pieces, min_size=1, max_size=max_size).map(lambda ps: sum(ps, [])[:max_size])


def series1(data, kind, max_size=8) -> Series1:
    coefficients = data.draw(values(kind, max_size))
    return Series1(coefficients, len(coefficients) - 1, RINGS[kind])


def series2(data, kind, order: int) -> Series2:
    cells = (order + 1) * (order + 2) // 2
    entries = data.draw(st.lists(ELEMENTS[kind], min_size=cells, max_size=cells))
    rows, start = [], 0
    for d in range(order + 1):
        rows.append(tuple(entries[start : start + d + 1]))
        start += d + 1
    return Series2(tuple(rows), order, RINGS[kind])


def sparse_series2(data, kind, order: int) -> Series2:
    """A two-variable series whose entries, row by row, come in runs of zeros."""
    cells = (order + 1) * (order + 2) // 2
    entries = data.draw(values(kind, max_size=cells))
    entries += [Fr(0)] * (cells - len(entries))
    ring = RINGS[kind]
    rows, start = [], 0
    for d in range(order + 1):
        rows.append(tuple(map(ring.coerce, entries[start : start + d + 1])))
        start += d + 1
    return Series2(tuple(rows), order, ring)


def joined_congruence(matrix: Series2, table) -> Series2:
    """``congruence_numerators`` with the signature of
    ``fraction_kernels.congruence``: the matrix and the triangular table
    of ring elements (table[a][i] for i >= a) split to numerator rows,
    and the result joined to the smaller of the two orders."""
    ring = matrix.ring
    n = min(matrix.order, len(table[0]) - 1)
    C, c = split_rows(ring, matrix.rows[: n + 1])
    T, t = split_rows(ring, [row[a : n + 1] for a, row in enumerate(table[: n + 1])])
    return joined_rows(congruence_numerators(C, T), c * t * t, ring)


def unit(data, kind):
    ring = RINGS[kind]
    return ring.coerce(data.draw(ELEMENTS[kind].filter(ring.is_unit)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series1_product(kind, data):
    a, b = series1(data, kind), series1(data, kind)
    product = a * b
    assert product == oracle.multiply1(a, b)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), orders=st.tuples(st.integers(0, 4), st.integers(0, 4)))
@settings(max_examples=30, deadline=None)
def test_series2_product(kind, data, orders):
    a, b = series2(data, kind, orders[0]), series2(data, kind, orders[1])
    product = a * b
    assert product == oracle.multiply2(a, b)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), orders=st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
@settings(max_examples=30, deadline=None)
def test_kernels_run_to_the_degree_their_operands_carry(kind, data, orders):
    # operands of two different degrees: each kernel takes no degree and
    # runs exactly to the smaller one, or to the series' own for a chain
    ring = RINGS[kind]
    low, high = sorted(orders)
    a, b = (Series1(data.draw(values(kind, order + 1)), order, ring) for order in orders)
    (A, da), (B, db) = ring.split(a.coefficients), ring.split(b.coefficients)
    product = convolve_numerators(A, B)
    assert len(product) == low + 1
    assert Series1(ring.join(product, da * db), low, ring) == oracle.multiply1(a, b)
    s, t = (series2(data, kind, order) for order in orders)
    rows, d = multiply_graded_rows(ring, *zip(*map(ring.split, s.rows)), *zip(*map(ring.split, t.rows)))
    assert len(rows) == low + 1
    assert Series2(tuple(map(ring.join, rows, d)), low, ring) == oracle.multiply2(s, t)
    g = Series1([ring.zero] + data.draw(values(kind, high)), high, ring)
    chain = list(power_chain(ring, g.coefficients, high))
    assert [len(P) for P, _ in chain] == [high + 1] * high
    assert tuple(Series1(ring.join(P, D), high, ring) for P, D in chain) == oracle.power_table(g)[1:]
    matrix = series2(data, kind, low)
    C, c = split_rows(ring, matrix.rows)
    T, t = power_numerators(g)
    congruence = congruence_numerators(C, T)
    assert len(congruence) == low + 1
    table = [p.coefficients for p in oracle.power_table(g)]
    assert joined_rows(congruence, c * t * t, ring) == oracle.congruence(matrix, table)


def test_a_kernel_knows_no_coefficient_beyond_its_operands():
    # e^x known to order 1 squares to 1 + 2x + O(x^2): not (1 + x)^2
    assert convolve_numerators([1, 1], [1, 1]) == [1, 2]
    assert list(power_chain(QQ, [1, 1], 2)) == [([1, 1], 1), ([1, 2], 1)]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reciprocal(kind, data):
    tail = data.draw(values(kind, max_size=7))
    series = Series1([unit(data, kind)] + tail, len(tail), RINGS[kind])
    inverse = reciprocal(series)
    assert inverse == oracle.reciprocal(series)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series_log(kind, data):
    ring = RINGS[kind]
    tail = data.draw(values(kind))
    series = Series1([ring.one] + tail, len(tail), ring)
    assert series_log(series) == oracle.series_log(series)


def same_numerators(A, B) -> bool:
    """Two tables of numerator rows agree entry by entry: each difference
    is the int 0, since a dual numerator has no ``__eq__``."""
    return [len(row) for row in A] == [len(row) for row in B] and all(
        p + -q == 0 for a, b in zip(A, B) for p, q in zip(a, b)
    )


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_power_table_and_compositional_inverse(kind, data):
    # the inverse of x / phi against the oracle's inversion of x / phi,
    # for an even phi (as F = f(u) f(-u) is) or any phi
    ring = RINGS[kind]
    tail = data.draw(values(kind, max_size=6))
    if data.draw(st.booleans(), label="even"):
        tail = [ring.zero if k % 2 else c for k, c in enumerate(tail, 1)]
    phi = Series1([unit(data, kind)] + tail, len(tail), ring)
    series = shift_up(reciprocal(phi), 1)
    g, powers = compositional_inverse(phi)
    expected_g, expected_powers = oracle.compositional_inverse(series)
    assert g == expected_g
    assert joined_powers(powers, ring) == expected_powers
    T, t = split_rows(ring, [p.coefficients[a:] for a, p in enumerate(expected_powers)])
    assert powers[1] == t and same_numerators(powers[0], T)
    # the inverse of g is the series, so its table holds the powers of the series
    inverse, powers = compositional_inverse(reciprocal(oracle.shift_down(g, 1)))
    assert inverse == series
    assert joined_powers(powers, ring) == oracle.power_table(series)


def _denominators(value) -> list[int]:
    parts = (value.value, value.infinitesimal) if isinstance(value, DualNumber) else (value,)
    return [part.denominator for part in parts]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_powers_denominator_is_the_lcm_of_the_reduced_ones(kind, data):
    # t is the lcm over every entry of g^0, ..., g^n, so the table holds
    # the same integers as a split of the powers as ring elements
    ring = RINGS[kind]
    tail = data.draw(values(kind, max_size=6))
    g, (T, t) = compositional_inverse(Series1([unit(data, kind)] + tail, len(tail), ring))
    powers = oracle.power_table(g)
    assert t == lcm(*(q for p in powers for c in p.coefficients for q in _denominators(c)))
    assert len(T) == len(powers) == g.order + 1
    for a, (row, power) in enumerate(zip(T, powers)):
        assert ring.join(row, t) == power.coefficients[a:]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), order=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_congruence_and_compose_difference(kind, data, order):
    ring = RINGS[kind]
    matrix = series2(data, kind, order)
    tail = data.draw(values(kind, max_size=5))
    g = Series1([ring.zero] + tail, len(tail), ring)
    powers = oracle.power_table(g)
    table = [p.coefficients for p in powers]
    result = joined_congruence(matrix, table)
    assert result == oracle.congruence(matrix, table)
    outer = series1(data, kind, max_size=6)
    difference = compose_difference_numerators(outer, power_numerators(g))
    assert joined_rows(*difference, ring) == oracle.compose_difference(outer, powers)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), order=st.integers(0, 6), sparse=st.booleans())
@settings(max_examples=40, deadline=None)
def test_compose(kind, data, order, sparse):
    ring = RINGS[kind]
    outer = series1(data, kind)
    rows = (sparse_series2 if sparse else series2)(data, kind, order).rows
    inner = Series2(((ring.zero,),) + rows[1:], order, ring)
    assert compose(outer, inner) == oracle.compose(outer, inner)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), order=st.integers(0, 5), spoil=st.booleans())
@settings(max_examples=30, deadline=None)
def test_divide_by_x_minus_y(kind, data, order, spoil):
    ring = RINGS[kind]
    x_minus_y = Series2(((ring.zero,), (-ring.one, ring.one)), order + 1, ring)
    multiple = oracle.multiply2(x_minus_y, series2(data, kind, order + 1))
    if spoil:
        # a remainder in the top layer, or a constant term
        row = list(multiple.rows[order + 1])
        row[0] = row[0] + ring.one
        multiple = Series2(multiple.rows[: order + 1] + (tuple(row),), order + 1, ring)
        for divide in (divide_by_x_minus_y, oracle.divide_by_x_minus_y):
            with pytest.raises(SeriesError, match="not divisible"):
                divide(multiple)
        with pytest.raises(SeriesError, match="not divisible"):
            divide_by_x_minus_y(multiple + ring.one)
        return
    quotient = divide_by_x_minus_y(multiple)
    assert quotient == oracle.divide_by_x_minus_y(multiple)


def assert_power_tables_match_the_grunsky_identity(P: Series1, N: int) -> None:
    """``_power_tables`` against the inverse g of u / P(u) and the
    Grunsky identity on its powers, on ring elements, with and without
    the outer log.  P must have order N + 1."""
    ring = P.ring
    G = shift_up(reciprocal(P).truncate(N), 1)
    g, powers = oracle.compositional_inverse(G)
    a_k = {k: g.coefficients[k] / ring.coerce(k) for k in range(1, N + 1)}
    for subtract_log, outer_log in ((False, None), (True, series_log(P))):
        expected = oracle.pair_log_entries(G, powers, N, outer_log)
        assert _power_tables(P, N, subtract_log) == (a_k, expected)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), N=st.integers(0, 7))
@settings(max_examples=25, deadline=None)
def test_power_tables(kind, data, N):
    """On a P that need not be even, with runs of zeros."""
    ring = RINGS[kind]
    tail = data.draw(values(kind, max_size=N + 1))
    assert_power_tables_match_the_grunsky_identity(Series1([ring.one] + tail, N + 1, ring), N)


@pytest.mark.parametrize("ring", [QQ, DUALS], ids=["rational", "dual"])
def test_power_tables_on_a_dense_series(ring):
    """Every coefficient of P is nonzero, so every term of every entry
    counts: a dropped factor m, or [u^(l-m)] read from P^k in place of
    P^l, shows."""
    tail = [Fr((-1) ** i * i, i + 2) for i in range(1, 11)]
    if ring is DUALS:
        tail = [DualNumber(v, Fr(1, i)) for i, v in enumerate(tail, 1)]
    assert_power_tables_match_the_grunsky_identity(Series1([ring.one] + tail, 10, ring), 9)


@pytest.mark.parametrize("ring", [QQ, DUALS])
def test_order_zero(ring):
    c = ring.coerce(Fr(-3, 7))
    a = Series1((c,), 0, ring)
    assert a * a == oracle.multiply1(a, a)
    assert reciprocal(a) == oracle.reciprocal(a)
    # phi to degree 0 gives the inverse to order 1; phi must be a unit
    assert compositional_inverse(a)[0] == Series1((ring.zero, c), 1, ring)
    with pytest.raises(NotInvertibleError):
        compositional_inverse(oracle.zero(Series1, 0, ring))
    assert congruence_numerators([[7]], [[2]]) == [[28]]
    powers = compositional_inverse(one(0, ring))[1]
    assert joined_rows(*compose_difference_numerators(a, powers), ring) == Series2(((c,),), 0, ring)
    assert series_log(one(0, ring)) == oracle.series_log(one(0, ring))
    s = Series2(((c,),), 0, ring)
    assert s * s == oracle.multiply2(s, s)
    assert joined_congruence(s, [(ring.one,)]) == oracle.congruence(s, [(ring.one,)])
    line = Series2(((ring.zero,), (c, -c)), 1, ring)
    assert divide_by_x_minus_y(line) == oracle.divide_by_x_minus_y(line)
    assert compose(a, line) == oracle.compose(a, line) == Series2(((c,),), 0, ring)
    assert compose(a, oracle.zero(Series2, 3, ring)) == oracle.compose(a, oracle.zero(Series2, 3, ring))
