"""Truncated formal power series with exact coefficients.

Every series carries an explicit truncation order.  A ``Series1`` of
order N stores the coefficients of degrees 0 through N and knows
nothing beyond degree N; asking for a higher coefficient raises
``InsufficientOrderError`` instead of returning a silent zero.
Products and the numerator kernels below truncate to the smaller
operand order; ``Series2`` keeps the same contract by total degree.
``truncate`` never extends and raises the same error, so it is the
precision check of every function that needs a series to a given
order: such a function truncates its input to that order first.

``Series1`` and ``Series2`` are truncated coefficient containers: they
offer the series-times-series product and, for ``Series2``, adding a
constant.  Everything else lives here as module-level functions:
reciprocal and log (one variable only, both quotients b / f from the
one triangular division ``quotient_numerators``), composition (a
one-variable series of a two-variable one by Horner's scheme over the
two-variable product; a two-variable series C(u, v) at u = g(x),
v = g(y) as a congruence of triangular matrices over the powers of g,
with outer(g(x) - g(y)) as one case),
the inverse of x / phi under composition by the Lagrange formula, which
also returns the powers of the inverse, built by multiplication, and
checks every entry of them by Lagrange-Buermann on the powers of phi,
and the two-variable division by x - y.
Powers stay numerators, cancelled one by one in ``power_chain``, and
``congruence_numerators`` reads a triangular table of them over one
denominator as it is.  ``localisation`` takes its logs from the same
``log_numerators``.  Coefficients come from one of the rings in
``rings``: plain rationals or dual numbers.

The kernels run on numerators over one common denominator, the
representation of FLINT's fmpq_poly.  ``Ring.split`` writes a sequence
of coefficients as numerators over one int denominator (integers over
the lcm of the denominators; for dual numbers, integer pairs a + b eps
over the lcm of the denominators of both parts), and ``Ring.join``
forms ring elements again.  ``split_rows`` and ``join_rows`` do the
same for a table of rows.  ``convolve_numerators``, ``power_chain``,
``multiply_graded_rows``, ``congruence_numerators``,
``compose_difference_numerators``, ``divide_numerators_by_x_minus_y``,
``quotient_numerators`` and ``log_numerators`` are the public numerator
interface, with the table of powers from ``compositional_inverse``:
they take and return numerators, and the caller keeps track of the
denominator.  No kernel subtracts numerators: a difference is a + -b.
The products, the analytic operations and the kernels behind them split
their operands, do every coefficient operation on the numerators with
no normalisation, and join where they return coefficients: one gcd per
coefficient returned instead of one per coefficient operation.  Chains
of products (the powers) and the triangular division cancel each new
term, so their denominator stays the lcm of the reduced ones instead of
growing as a power.  ``multiply_graded_rows`` is the one two-variable
product: ``Series2.__mul__``, the Horner steps of ``compose`` and
``closedform.z_closed`` all run on it.  It keeps one reduced
denominator per row of total degree, since the denominators of a series
often grow with the degree, and a row with no term is zero over 1.
One body serves both rings.  Only the one-pass operations (a constant
added to a ``Series2``, x -> -x, the shift, the derivative) work on
ring elements.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Any, Sequence

from .rings import QQ, Frozen, Ring


class SeriesError(ValueError):
    """An ill-posed series operation."""


class InsufficientOrderError(SeriesError):
    """A coefficient beyond the truncation order was requested."""


class NotInvertibleError(SeriesError):
    """The series has no inverse of the requested kind."""


class InternalCheckError(SeriesError):
    """A self-check of the package failed: a bug, not bad input."""


def check_class_series(f: "Series1", order: int) -> "Series1":
    """f truncated at ``order`` (the precision check), refused unless f(0) = 1."""
    f = f.truncate(order)
    if f.constant_term != f.ring.one:
        raise ValueError("a multiplicative class series must have constant term 1")
    return f


# ---------------------------------------------------------------------------
# numerator kernels: each runs on the numerators from ``Ring.split``


def _regroup(flat: Sequence, rows: Sequence[Sequence]) -> list:
    """Cut ``flat`` into pieces of the lengths of ``rows``."""
    out, start = [], 0
    for row in rows:
        out.append(flat[start : start + len(row)])
        start += len(row)
    return out


def split_rows(ring: Ring, rows: Sequence[Sequence]) -> tuple[list[list], int]:
    """``Ring.split`` of a table: numerator rows over one denominator."""
    flat, denominator = ring.split([c for row in rows for c in row])
    return _regroup(flat, rows), denominator


def join_rows(ring: Ring, rows: Sequence[Sequence], denominator: int) -> tuple[tuple, ...]:
    """``Ring.join`` of a table of numerator rows."""
    return tuple(_regroup(ring.join([c for row in rows for c in row], denominator), rows))


def convolve_numerators(a: Sequence, b: Sequence) -> list:
    """The product of two numerator sequences, to the smaller of their degrees."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


def multiply_graded_rows(
    ring: Ring, A: Sequence[Sequence], a: Sequence[int], B: Sequence[Sequence], b: Sequence[int]
) -> tuple[list[list], list[int]]:
    """Product, to the smaller total degree, of two tables of numerator
    rows, row d of A over the denominator a[d] and row d of B over b[d].

    rows[d][i] is the numerator of x^i y^(d-i).  Row e of the product is
    formed over the lcm of a[d] b[e - d] and cancelled, so each row keeps
    the size of its own terms: for a series whose denominators grow with
    the degree, one denominator for the whole table would inflate the
    low rows to the size of the top one.  A row that no pair of rows
    meets has no term and is zero over 1, with no lcm and no cancel:
    row 0 of any product by a constant-free series is such a row.  Only
    the nonzero entries of B are visited.  Returns the rows and their
    denominators.
    """
    # the nonzero entries of each row of B that has any, and the pairs
    # of rows with terms that meet at each total degree
    n = min(len(A), len(B)) - 1
    nonzero = {k: [(i, v) for i, v in enumerate(row) if v] for k, row in enumerate(B) if any(row)}
    meeting = [[] for _ in range(n + 1)]
    for d, row in enumerate(A[: n + 1]):
        if any(row):
            for k in nonzero:
                if d + k > n:
                    break
                meeting[d + k].append((d, k))
    rows, denominators = [], []
    for e, pairs in enumerate(meeting):
        if not pairs:
            rows.append([0] * (e + 1))
            denominators.append(1)
            continue
        L = lcm(*(a[d] * b[k] for d, k in pairs))
        target = [0] * (e + 1)
        for d, k in pairs:
            scale = L // (a[d] * b[k])
            terms = nonzero[k]
            for i, x in enumerate(A[d]):
                if x:
                    x = x * scale
                    for j, y in terms:
                        target[i + j] += x * y
        target, L = ring.cancel(target, L)
        rows.append(target)
        denominators.append(L)
    return rows, denominators


def divide_numerators_by_x_minus_y(rows: Sequence[Sequence]) -> list[list]:
    """Numerator rows of a two-variable series divided by (x - y).

    Within the layer of total degree d, writing c_j for the coefficient
    of x^j y^(d-j), the quotient layer b of degree d-1 satisfies
    c_j = b_(j-1) - b_j, which is solved from the top down.  The
    leftover at j = 0 is the division remainder and must vanish.  Only
    additions, so the denominator does not change.
    """
    if rows[0][0]:
        raise SeriesError("not divisible by (x - y)")
    out = []
    for d in range(1, len(rows)):
        c = rows[d]
        b = [0] * d
        b[d - 1] = c[d]
        for j in range(d - 1, 0, -1):
            b[j - 1] = c[j] + b[j]
        if c[0] + b[0]:
            raise SeriesError("not divisible by (x - y)")
        out.append(b)
    return out


def congruence_numerators(C: Sequence[Sequence], T: Sequence[Sequence]) -> list[list]:
    """Numerator rows of the sum over a, b of T[a][i - a] C[a][b] T[b][j - b].

    ``C`` holds numerator rows by total degree, C[a + b][a] for x^a y^b.
    ``T`` is a triangular table of numerators over one denominator t,
    T[a][i - a] for the entry at i >= a, the form in which
    ``compositional_inverse`` returns the powers of g; when
    T[a][i - a] / t = [x^i] g^a the result is C(g(x), g(y)).  Returns
    the rows to the degree of C; their denominator is that of C times t^2.
    """
    n = len(C) - 1
    # half[a][j] = (C T)[a][j]; only a + j <= n is ever read.
    half = []
    for a in range(n + 1):
        row = [0] * (n - a + 1)
        for b in range(n - a + 1):
            c = C[a + b][a]
            if c:
                for j, p in enumerate(T[b][: n - a - b + 1], b):
                    if p:
                        row[j] += c * p
        half.append(row)
    rows = [[0] * (d + 1) for d in range(n + 1)]
    for a in range(n + 1):
        for i, p in enumerate(T[a][: n - a + 1], a):
            if p:
                for j, h in enumerate(half[a][: n - i + 1]):
                    if h:
                        rows[i + j][i] += p * h
    return rows


def power_chain(ring: Ring, coefficients: Sequence, count: int):
    """Numerators and denominator of the series' powers 1, ..., count, to its degree.

    Each product is cancelled to the reduced denominator of its power
    before it takes the next factor, so the numerators grow with the
    coefficients of the powers, not with d^a.
    """
    F, d = ring.split(coefficients)
    P, D = [1] + [0] * (len(F) - 1), 1
    for _ in range(count):
        P, D = ring.cancel(convolve_numerators(P, F), D * d)
        yield P, D


def quotient_numerators(ring: Ring, B: Sequence, F: Sequence, d: int, u, w: int) -> tuple[list, int]:
    """Numerators R and one denominator L of X = b / f to the degree of F,
    for b = B / d and f = F / d, where 1 / f_0 = u / w.

    The triangular recursion f_0 X_k = b_k - sum over 1 <= j <= k of
    f_j X_(k-j) runs on numerators: with X_i = R_i / L,
    X_k = u (B_k L + -sum of F_j R_(k-j)) / (w d L).  Each X_k is
    cancelled before L takes it in, which keeps L the lcm of the reduced
    denominators: a fraction-free recursion would carry d^k, which for a
    series like the Todd one dwarfs them.  Only the nonzero F_j are
    visited.
    """
    terms = [(j, a) for j, a in enumerate(F) if j and a]
    R, L = [], 1
    for k in range(len(F)):
        acc = 0
        for j, a in terms:
            if j > k:
                break
            acc += a * R[k - j]
        (x,), e = ring.cancel((u * (B[k] * L + -acc),), w * d * L)
        if L % e:
            grown = lcm(L, e)
            R = [r * (grown // L) for r in R]
            L = grown
        R.append(x * (L // e))
    return R, L


def log_numerators(f: "Series1") -> tuple[list, int]:
    """Numerators R and one denominator Q of the weights W_m = m [x^m] log f
    to the order of f, which the caller truncates; R[0] = 0.

    L = log f solves f L' = f', so W = x f' / f: the quotient of
    ``quotient_numerators`` with B_m = m F_m and u = w = 1, at O(n^2)
    operations on numerators.
    """
    ring = f.ring
    if f.constant_term != ring.one:
        raise SeriesError("log requires constant term 1")
    F, d = ring.split(f.coefficients)
    return quotient_numerators(ring, [m * v for m, v in enumerate(F)], F, d, 1, 1)


class _Series(Frozen):
    """What ``Series1`` and ``Series2`` share: the members that do not
    depend on how the coefficients are stored.  Both constructors take
    the stored coefficients, the order and the ring, in the order of
    ``__slots__``, and cut the coefficients at the order.
    """

    __slots__ = ()

    def truncate(self, order: int):
        """Forget the terms above ``order``.  Never extends: a larger
        ``order`` raises InsufficientOrderError (the precision check)."""
        if order > self.order:
            raise InsufficientOrderError(
                f"insufficient precision: order {order} requested from a series truncated "
                f"at order {self.order}; cannot extend it, rebuild it at higher order"
            )
        return type(self)(self._fields()[0], order, self.ring)

    def _require_same_ring(self, other: "_Series") -> None:
        if self.ring is not other.ring:
            raise SeriesError("operands live over different coefficient rings")


# ---------------------------------------------------------------------------
# one variable


class Series1(_Series):
    """A power series in one variable, truncated after degree ``order``.

    ``coefficients[k]`` is the coefficient of x^k for 0 <= k <= order.
    The tuple always has length order + 1.
    """

    __slots__ = ("coefficients", "order", "ring")

    def __init__(self, coefficients: tuple, order: int, ring: Ring = QQ) -> None:
        if order < 0:
            raise SeriesError("truncation order must be non-negative")
        values = tuple(map(ring.coerce, coefficients[: order + 1]))
        if len(values) <= order:
            values += (ring.zero,) * (order + 1 - len(values))
        object.__setattr__(self, "coefficients", values)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)

    # -- access ------------------------------------------------------------

    def coefficient(self, exponent: int):
        if exponent < 0:
            raise SeriesError("exponents must be non-negative")
        if exponent > self.order:
            raise InsufficientOrderError(
                f"insufficient precision: degree {exponent} requested from a "
                f"series truncated after degree {self.order}"
            )
        return self.coefficients[exponent]

    @property
    def constant_term(self):
        return self.coefficients[0]

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: Any) -> "Series1":
        if not isinstance(other, Series1):
            return NotImplemented
        self._require_same_ring(other)
        n = min(self.order, other.order)
        ring = self.ring
        a, da = ring.split(self.coefficients[: n + 1])
        b, db = ring.split(other.coefficients[: n + 1])
        return Series1(ring.join(convolve_numerators(a, b), da * db), n, ring)


# ---------------------------------------------------------------------------
# two variables


class Series2(_Series):
    """A power series in two variables, truncated by total degree.

    Storage is a dense triangle: ``rows[d][i]`` is the coefficient of
    x^i y^(d-i), for 0 <= d <= order and 0 <= i <= d.
    """

    __slots__ = ("rows", "order", "ring")

    def __init__(self, rows: tuple, order: int, ring: Ring = QQ) -> None:
        if order < 0:
            raise SeriesError("truncation order must be non-negative")
        coerce = ring.coerce
        zero = ring.zero
        fixed = []
        for d, row in enumerate(rows[: order + 1]):
            row = tuple(map(coerce, row[: d + 1]))
            fixed.append(row if len(row) > d else row + (zero,) * (d + 1 - len(row)))
        fixed.extend((zero,) * (d + 1) for d in range(len(fixed), order + 1))
        object.__setattr__(self, "rows", tuple(fixed))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)

    # -- access ------------------------------------------------------------

    def coefficient(self, i: int, j: int):
        if i < 0 or j < 0:
            raise SeriesError("exponents must be non-negative")
        return self.homogeneous(i + j)[i]

    def homogeneous(self, degree: int) -> tuple:
        """The row of coefficients of total degree ``degree``."""
        if degree < 0:
            raise SeriesError("exponents must be non-negative")
        if degree > self.order:
            raise InsufficientOrderError(
                f"insufficient precision: total degree {degree} requested from a "
                f"series truncated after total degree {self.order}"
            )
        return self.rows[degree]

    @property
    def constant_term(self):
        return self.rows[0][0]

    def swap(self) -> "Series2":
        """Exchange the two variables."""
        return Series2(tuple(tuple(reversed(row)) for row in self.rows), self.order, self.ring)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Any) -> "Series2":
        """The series plus a constant of its ring."""
        try:
            scalar = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        rows = ((self.rows[0][0] + scalar,),) + self.rows[1:]
        return Series2(rows, self.order, self.ring)

    def __mul__(self, other: Any) -> "Series2":
        if not isinstance(other, Series2):
            return NotImplemented
        self._require_same_ring(other)
        n = min(self.order, other.order)
        ring = self.ring
        A, a = zip(*map(ring.split, self.rows[: n + 1]))
        B, b = zip(*map(ring.split, other.rows[: n + 1]))
        rows, d = multiply_graded_rows(ring, A, a, B, b)
        return Series2(tuple(map(ring.join, rows, d)), n, ring)


# ---------------------------------------------------------------------------
# analytic operations


def reciprocal(series: Series1) -> Series1:
    """Multiplicative inverse of a one-variable series: the quotient of
    ``quotient_numerators`` with B = (d, 0, ..., 0), for the series
    split as F / d and 1/c_0 as u / w.

    The constant term must be a unit of the coefficient ring.
    """
    ring = series.ring
    c0 = series.constant_term
    if not ring.is_unit(c0):
        raise NotInvertibleError("constant term is not a unit, no multiplicative inverse")
    F, d = ring.split(series.coefficients)
    (u,), w = ring.split((ring.one / c0,))
    R, L = quotient_numerators(ring, [d] + [0] * series.order, F, d, u, w)
    return Series1(ring.join(R, L), series.order, ring)


def series_log(series: Series1) -> Series1:
    """Logarithm of a one-variable series with constant term one:
    [x^m] log f = R_m / (m Q) with R and Q from ``log_numerators``, all
    over lcm(1, ..., N) Q and formed by one ``Ring.join``."""
    n = series.order
    R, Q = log_numerators(series)
    L = lcm(*range(1, n + 1))
    return Series1(series.ring.join([0] + [R[m] * (L // m) for m in range(1, n + 1)], L * Q), n, series.ring)


def compose(outer: Series1, inner: Series2) -> Series2:
    """Substitute the two-variable ``inner`` (zero constant term) into
    the one-variable ``outer``.

    Evaluation is by Horner's scheme on ``multiply_graded_rows``, the
    package's one two-variable product: h starts at zero, and for
    k = n, ..., 1 row 0 of h is set to outer_k and h is multiplied by
    ``inner``.  Row 0 of a product by a constant-free series has no
    term, so setting it adds outer_k.  Each row keeps its own reduced
    denominator through the steps and is joined over it; outer_0 is
    added to the joined series.  The product visits only the nonzero
    entries of ``inner``, so a sparse inner series such as x - y costs
    O(N^2) per step.
    """
    outer._require_same_ring(inner)
    ring = outer.ring
    if inner.constant_term != ring.zero:
        raise SeriesError("composition requires the inner series to have zero constant term")
    n = min(outer.order, inner.order)
    I, d = split_rows(ring, inner.rows[: n + 1])
    # O[k] / c is outer_k; outer_0 is added to the joined series.
    O, c = ring.split(outer.coefficients[: n + 1])
    H, h, b = [[0] * (e + 1) for e in range(n + 1)], [c] * (n + 1), [d] * (n + 1)
    for k in range(n, 0, -1):
        H[0], h[0] = [O[k]], c
        H, h = multiply_graded_rows(ring, H, h, I, b)
    return Series2(tuple(map(ring.join, H, h)), n, ring) + outer.coefficients[0]


def compose_difference_numerators(outer: Series1, powers: tuple[list[list], int]) -> tuple[list[list], int]:
    """Numerator rows and one denominator of outer(g(x) - g(y)), given the
    powers (T, t) of g from ``compositional_inverse``.

    Expanding each (g(x) - g(y))^c binomially gives the congruence with
    C[a][b] = outer_(a+b) binom(a+b, a) (-1)^b, the coefficients of
    outer(x - y), at O(N^3) coefficient operations against one
    two-variable product per outer coefficient for ``compose``.  The
    order is the smaller of the two operand orders, as for ``compose``.
    """
    T, t = powers
    ring = outer.ring
    n = min(outer.order, len(T) - 1)
    numerators, c = ring.split(outer.coefficients[: n + 1])
    matrix = [
        [v * (comb(d, a) * (-1) ** (d - a)) for a in range(d + 1)] for d, v in enumerate(numerators)
    ]
    return congruence_numerators(matrix, T), c * t * t


def compositional_inverse(phi: Series1) -> tuple[Series1, tuple[list[list], int]]:
    """The inverse g of x / phi under composition, and its powers.

    phi must have a unit constant term; phi to degree n - 1 gives g to
    order n.  By the Lagrange inversion formula g_m = [x^(m-1)] phi^m / m,
    so the inverse costs the products that build the powers of phi.  The
    powers of g come from multiplying g, never from the same formula, as
    numerators (T, t): T[a][i - a] / t is [x^i] g^a, and t is the lcm of
    the reduced denominators of g^0, ..., g^n.  They give the check
    k [x^k] g^a = a [u^(k-a)] phi^k (Lagrange-Buermann) for every
    1 <= a <= k <= n at O(N^2), which covers every entry of the table
    that a congruence reads.  A failed check would indicate a bug here,
    not bad input, and raises InternalCheckError.
    """
    ring = phi.ring
    if not ring.is_unit(phi.constant_term):
        raise NotInvertibleError("not invertible under composition")
    n = phi.order + 1
    chain = list(power_chain(ring, phi.coefficients, n))
    coefficients = [ring.zero]
    for m, (P, D) in enumerate(chain, 1):
        coefficients.append(ring.join((P[m - 1],), m * D)[0])
    g = Series1(tuple(coefficients), n, ring)
    # Each P is cancelled, so D is the lcm of its reduced denominators.
    powers = [([1] + [0] * n, 1), *power_chain(ring, g.coefficients, n)]
    t = lcm(*(D for _, D in powers))
    T = [[p * (t // D) for p in P[a:]] for a, (P, D) in enumerate(powers)]
    # With P / D = phi^k the check reads k D T[a][k - a] = a t P[k - a];
    # a difference that is not the int 0 is true, and a numerator with
    # an eps part is never 0.
    for k, (P, D) in enumerate(chain, 1):
        if any(k * D * T[a][k - a] + -(a * t * P[k - a]) for a in range(1, k + 1)):
            raise InternalCheckError("internal error: compositional inverse failed its round-trip check")
    return g, (T, t)


def differentiate(series: Series1) -> Series1:
    """d/dx; the order drops by one."""
    if series.order < 1:
        raise InsufficientOrderError("insufficient precision: cannot differentiate a constant-order series")
    ring = series.ring
    values = tuple(ring.coerce(k) * series.coefficients[k] for k in range(1, series.order + 1))
    return Series1(values, series.order - 1, ring)


def negate_argument(series: Series1) -> Series1:
    """x -> -x: the odd coefficients change sign."""
    values = tuple(-c if k % 2 else c for k, c in enumerate(series.coefficients))
    return Series1(values, series.order, series.ring)


def shift_up(series: Series1, k: int) -> Series1:
    """Multiply by x^k.  The order rises by k, no knowledge is lost."""
    if k < 0:
        raise SeriesError("shift amount must be non-negative")
    ring = series.ring
    values = (ring.zero,) * k + series.coefficients
    return Series1(values, series.order + k, ring)


def divide_by_x_minus_y(series: Series2) -> Series2:
    """Exact division by (x - y), one homogeneous layer at a time, on
    numerators (see ``divide_numerators_by_x_minus_y``)."""
    ring = series.ring
    rows, d = split_rows(ring, series.rows)
    return Series2(join_rows(ring, divide_numerators_by_x_minus_y(rows), d), series.order - 1, ring)
