"""Truncated formal power series with exact coefficients.

Every series carries an explicit truncation order.  A ``Series1`` of
order N stores the coefficients of degrees 0 through N and knows
nothing beyond degree N; asking for a higher coefficient raises
``InsufficientOrderError`` instead of returning a silent zero.  Binary
operations truncate to the smaller operand order.  The same contract
holds for ``Series2`` with total degree playing the role of degree.
``truncate`` never extends and raises the same error, so it is the
precision check of every function that needs a series to a given
order: such a function truncates its input to that order first.

The analytic operations all live here as module-level functions:
reciprocal and log (one variable only, both recurrences on
numerators), composition (Horner's scheme in general; a two-variable
series C(u, v) at u = g(x), v = g(y) as a congruence of triangular
matrices over the powers of g, with outer(g(x) - g(y)) as one case),
compositional inversion by the Lagrange formula, which also returns the
powers of the inverse and checks it against them, and the two-variable
division by x - y.  The fixed-point sums in ``localisation`` take
their logs from the same ``log_numerators`` and exponentiate on
integers there.  Coefficients come from one of the rings in ``rings``:
plain rationals or dual numbers.

The kernels run on numerators over one common denominator, the
representation of FLINT's fmpq_poly.  ``Ring.split`` writes a sequence
of coefficients as numerators over one int denominator (integers over
the lcm of the denominators; for dual numbers, integer pairs a + b eps
over the lcm of the denominators of both parts), and ``Ring.join``
forms ring elements again.  ``convolve_numerators``,
``multiply_graded_rows``, ``congruence_numerators``,
``compose_difference_numerators``, ``divide_numerators_by_x_minus_y``
and ``log_numerators`` are the public numerator interface: they take
and return numerators, and the caller keeps track of the denominator.
The products, the analytic operations and the kernels behind them split
their operands, do every coefficient operation on the numerators with
no normalisation, and join where they return coefficients: one gcd per
coefficient returned instead of one per coefficient operation.  Chains
of products (the powers, the Horner steps of ``compose``) and the
recursions of ``reciprocal`` and the log cancel each new term, so their
denominator stays the lcm of the reduced ones instead of growing as a
power.  The two-variable product keeps one denominator per row of total
degree, since the denominators of a series often grow with the degree.
One body serves both rings.  Only the one-pass operations (sums, sign
flips, shifts, the derivative) work on ring elements.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Any, Iterable, Sequence

from .rings import QQ, Frozen, Ring


class SeriesError(ValueError):
    """An ill-posed series operation."""


class InsufficientOrderError(SeriesError):
    """A coefficient beyond the truncation order was requested."""


class NotInvertibleError(SeriesError):
    """The series has no inverse of the requested kind."""


def check_class_series(f: "Series1") -> None:
    """The precondition of a multiplicative class series: constant term 1."""
    if f.constant_term != f.ring.one:
        raise ValueError("a multiplicative class series must have constant term 1")


# ---------------------------------------------------------------------------
# numerator kernels: each runs on the numerators from ``Ring.split``


def _regroup(flat: Sequence, rows: Sequence[Sequence]) -> list:
    """Cut ``flat`` into pieces of the lengths of ``rows``."""
    out, start = [], 0
    for row in rows:
        out.append(flat[start : start + len(row)])
        start += len(row)
    return out


def _split_rows(ring: Ring, rows: Sequence[Sequence]) -> tuple[list[list], int]:
    """``Ring.split`` of a table: numerator rows over one denominator."""
    flat, denominator = ring.split([c for row in rows for c in row])
    return _regroup(flat, rows), denominator


def _join_rows(ring: Ring, rows: Sequence[Sequence], denominator: int) -> tuple[tuple, ...]:
    """``Ring.join`` of a table of numerator rows."""
    return tuple(_regroup(ring.join([c for row in rows for c in row], denominator), rows))


def _cancel_rows(ring: Ring, rows: Sequence[Sequence], denominator: int) -> tuple[list[list], int]:
    """``Ring.cancel`` of a table of numerator rows."""
    flat, denominator = ring.cancel([c for row in rows for c in row], denominator)
    return _regroup(flat, rows), denominator


def convolve_numerators(a: Sequence, b: Sequence, n: int) -> list:
    """Degrees 0 to n of the product of two numerator sequences."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


def multiply_graded_rows(
    ring: Ring, A: Sequence[Sequence], a: Sequence[int], B: Sequence[Sequence], b: Sequence[int], n: int
) -> tuple[list[list], list[int]]:
    """Product to total degree n of two tables of numerator rows, row d
    of A over the denominator a[d] and row d of B over b[d].

    rows[d][i] is the numerator of x^i y^(d-i).  Row e of the product is
    formed over the lcm of a[d] b[e - d] and cancelled, so each row keeps
    the size of its own terms: for a series whose denominators grow with
    the degree, one denominator for the whole table would inflate the
    low rows to the size of the top one.  Only the nonzero entries of B
    are visited.  Returns the rows and their denominators.
    """
    nonzero = [[(i, v) for i, v in enumerate(row) if v] for row in B]
    live = [d for d, row in enumerate(A) if any(row)]
    rows, denominators = [], []
    for e in range(n + 1):
        pairs = [(d, e - d) for d in live if d <= e < d + len(B) and nonzero[e - d]]
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


def congruence_numerators(
    ring: Ring, C: Sequence[Sequence], table: Sequence[Sequence], n: int
) -> tuple[list[list], int]:
    """Numerator rows of the sum over a, b of table[a][i] C[a][b] table[b][j].

    ``C`` holds numerator rows by total degree, C[a + b][a] for x^a y^b;
    ``table`` holds ring elements, triangular, and its entries at i >= a
    are split here over one denominator t.  Returns the rows to total
    degree n and t^2, the factor the table adds to the denominator of C.
    """
    # T[a][i - a] is table[a][i].
    T, t = _split_rows(ring, [row[a : n + 1] for a, row in enumerate(table[: n + 1])])
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
        for i, p in enumerate(T[a], a):
            if p:
                for j, h in enumerate(half[a][: n - i + 1]):
                    if h:
                        rows[i + j][i] += p * h
    return rows, t * t


def _powers(ring: Ring, coefficients: Sequence, n: int):
    """Numerators and denominator of the series' powers 2, ..., n to degree n.

    Each product is cancelled to the reduced denominator of its power
    before it takes the next factor, so the numerators grow with the
    coefficients of the powers, not with d^a.
    """
    F, d = ring.split(coefficients)
    P, D = F, d
    for _ in range(2, n + 1):
        P, D = ring.cancel(convolve_numerators(P, F, n), D * d)
        yield P, D


def _append_cancelled(ring: Ring, R: list, L: int, numerator, denominator: int):
    """Append numerator / denominator to the numerators R over L, cancelled
    first, so that L stays the lcm of the reduced denominators."""
    (numerator,), e = ring.cancel((numerator,), denominator)
    if L % e:
        grown = lcm(L, e)
        R = [r * (grown // L) for r in R]
        L = grown
    R.append(numerator * (L // e))
    return R, L


def log_numerators(f: "Series1", n: int) -> tuple[list, int]:
    """Numerators R and one denominator Q of the weights W_m = m [x^m] log f.

    Truncating f to n is the precision check; R[0] = 0.  L = log f
    solves f L' = f', so W_m = m f_m - sum over 1 <= k < m of
    W_k f_(m-k), at O(n^2) operations on numerators: with f = F / d and
    W_k = R_k / Q, W_m = (m F_m Q - sum of R_k F_(m-k)) / (d Q), which
    is cancelled before Q takes it in, as in ``reciprocal``.
    """
    ring = f.ring
    truncated = f.truncate(n)
    if truncated.constant_term != ring.one:
        raise SeriesError("log requires constant term 1")
    F, d = ring.split(truncated.coefficients)
    R, Q = [0], 1
    for m in range(1, n + 1):
        acc = m * F[m] * Q
        for k in range(1, m):
            b = F[m - k]
            if b:
                acc = acc - R[k] * b
        R, Q = _append_cancelled(ring, R, Q, acc, d * Q)
    return R, Q


class _Series(Frozen):
    """What ``Series1`` and ``Series2`` share: the members that do not
    depend on how the coefficients are stored.  Both constructors take
    the stored coefficients, the order and the ring, in the order of
    ``__slots__``, and cut the coefficients at the order.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, order: int, ring: Ring = QQ):
        return cls((), order, ring)

    def truncate(self, order: int):
        """Forget the terms above ``order``.  Never extends: a larger
        ``order`` raises InsufficientOrderError (the precision check)."""
        if order > self.order:
            raise InsufficientOrderError(
                f"insufficient precision: order {order} requested from a series truncated "
                f"at order {self.order}; cannot extend it, rebuild it at higher order"
            )
        return type(self)(self._fields()[0], order, self.ring)

    def _coerce_scalar(self, other: Any):
        try:
            return self.ring.coerce(other)
        except TypeError:
            return None

    def _require_same_ring(self, other: "_Series") -> None:
        if self.ring is not other.ring:
            raise SeriesError("operands live over different coefficient rings")

    def __radd__(self, other: Any):
        return self.__add__(other)

    def __sub__(self, other: Any):
        if not isinstance(other, type(self)):
            other = self._coerce_scalar(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Any):
        return (-self) + other

    def __rmul__(self, other: Any):
        return self.__mul__(other)


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

    @classmethod
    def from_coefficients(cls, values: Iterable, order: int | None = None, ring: Ring = QQ) -> "Series1":
        """Series with the given coefficients from degree 0 upwards.

        When ``order`` is omitted the series is marked as known exactly
        up to the last listed degree.
        """
        values = tuple(values)
        if order is None:
            order = len(values) - 1
        return cls(values, order, ring)

    @classmethod
    def one(cls, order: int, ring: Ring = QQ) -> "Series1":
        return cls((ring.one,), order, ring)

    @classmethod
    def identity(cls, order: int, ring: Ring = QQ) -> "Series1":
        """The series x."""
        return cls((ring.zero, ring.one), order, ring)

    @classmethod
    def monomial(cls, coefficient: Any, exponent: int, order: int, ring: Ring = QQ) -> "Series1":
        if exponent < 0:
            raise SeriesError("exponents must be non-negative")
        values = [ring.zero] * (exponent + 1)
        if exponent <= order:
            values[exponent] = coefficient
        return cls(tuple(values), order, ring)

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

    def __add__(self, other: Any) -> "Series1":
        if isinstance(other, Series1):
            self._require_same_ring(other)
            n = min(self.order, other.order)
            return Series1(
                tuple(self.coefficients[k] + other.coefficients[k] for k in range(n + 1)),
                n,
                self.ring,
            )
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        values = (self.coefficients[0] + scalar,) + self.coefficients[1:]
        return Series1(values, self.order, self.ring)

    def __neg__(self) -> "Series1":
        return Series1(tuple(-c for c in self.coefficients), self.order, self.ring)

    def __mul__(self, other: Any) -> "Series1":
        if isinstance(other, Series1):
            self._require_same_ring(other)
            n = min(self.order, other.order)
            ring = self.ring
            a, da = ring.split(self.coefficients[: n + 1])
            b, db = ring.split(other.coefficients[: n + 1])
            return Series1(ring.join(convolve_numerators(a, b, n), da * db), n, ring)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return Series1(tuple(c * scalar for c in self.coefficients), self.order, self.ring)


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

    @classmethod
    def one(cls, order: int, ring: Ring = QQ) -> "Series2":
        return cls(((ring.one,),), order, ring)

    @classmethod
    def from_dict(cls, entries: dict, order: int, ring: Ring = QQ) -> "Series2":
        """Build from a map (i, j) -> coefficient.  Entries beyond the
        order are dropped, which is the truncation semantic."""
        for i, j in entries:
            if i < 0 or j < 0:
                raise SeriesError("exponents must be non-negative")
        # Rows above the highest degree given are left to the constructor's padding.
        top = max((i + j for i, j in entries if i + j <= order), default=-1)
        rows = [[ring.zero] * (d + 1) for d in range(top + 1)]
        for (i, j), value in entries.items():
            if i + j <= order:
                rows[i + j][i] = rows[i + j][i] + value
        return cls(tuple(tuple(row) for row in rows), order, ring)

    # -- access ------------------------------------------------------------

    def coefficient(self, i: int, j: int):
        if i < 0 or j < 0:
            raise SeriesError("exponents must be non-negative")
        if i + j > self.order:
            raise InsufficientOrderError(
                f"insufficient precision: monomial x^{i} y^{j} requested from a "
                f"series truncated after total degree {self.order}"
            )
        return self.rows[i + j][i]

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
        if isinstance(other, Series2):
            self._require_same_ring(other)
            n = min(self.order, other.order)
            rows = tuple(
                tuple(a + b for a, b in zip(self.rows[d], other.rows[d]))
                for d in range(n + 1)
            )
            return Series2(rows, n, self.ring)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        rows = ((self.rows[0][0] + scalar,),) + self.rows[1:]
        return Series2(rows, self.order, self.ring)

    def __neg__(self) -> "Series2":
        return Series2(tuple(tuple(-c for c in row) for row in self.rows), self.order, self.ring)

    def __mul__(self, other: Any) -> "Series2":
        if isinstance(other, Series2):
            self._require_same_ring(other)
            n = min(self.order, other.order)
            ring = self.ring
            A, a = zip(*map(ring.split, self.rows[: n + 1]))
            B, b = zip(*map(ring.split, other.rows[: n + 1]))
            rows, d = multiply_graded_rows(ring, A, a, B, b, n)
            return Series2(tuple(map(ring.join, rows, d)), n, ring)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        rows = tuple(tuple(c * scalar for c in row) for row in self.rows)
        return Series2(rows, self.order, self.ring)


# ---------------------------------------------------------------------------
# analytic operations


def reciprocal(series: Series1) -> Series1:
    """Multiplicative inverse of a one-variable series, by the usual
    triangular recursion out_k = -(1/c_0) sum over 1 <= i <= k of
    c_i out_(k-i).

    The constant term must be a unit of the coefficient ring.  The
    series is split as F / d and 1/c_0 as u / w, and the coefficients
    found so far are kept as numerators R over their common denominator
    L, so out_k = -u (sum of F_j R_(k-j)) / (w d L) is formed on
    numerators.  Cancelling each out_k before L takes it in
    (``_append_cancelled``) keeps L the lcm of the reduced denominators:
    a fraction-free recursion would carry d^k, which for a series like
    the Todd one dwarfs them.
    """
    ring = series.ring
    c0 = series.constant_term
    if not ring.is_unit(c0):
        raise NotInvertibleError("constant term is not a unit, no multiplicative inverse")
    F, d = ring.split(series.coefficients)
    (u,), w = ring.split((ring.one / c0,))
    R, L = [u], w
    for k in range(1, series.order + 1):
        acc = 0
        for j in range(1, k + 1):
            a = F[j]
            if a:
                acc += a * R[k - j]
        R, L = _append_cancelled(ring, R, L, -u * acc, w * d * L)
    return Series1(ring.join(R, L), series.order, ring)


def series_log(series: Series1) -> Series1:
    """Logarithm of a one-variable series with constant term one:
    [x^m] log f = R_m / (m Q) with R and Q from ``log_numerators``, all
    over lcm(1, ..., N) Q and formed by one ``Ring.join``."""
    n = series.order
    R, Q = log_numerators(series, n)
    L = lcm(*range(1, n + 1))
    return Series1(series.ring.join([0] + [R[m] * (L // m) for m in range(1, n + 1)], L * Q), n, series.ring)


def _times_terms(rows: Sequence[Sequence], terms: Sequence[tuple], n: int) -> list[list]:
    """Numerator rows times the series whose nonzero numerators are the
    terms (e, j, v), v at row e and place j, to total degree n."""
    out = [[0] * len(row) for row in rows]
    for d, row in enumerate(rows):
        for i, h in enumerate(row):
            if h:
                for e, j, v in terms:
                    if d + e > n:
                        break
                    out[d + e][i + j] += h * v
    return out


def compose(outer: Series1, inner: Series1 | Series2):
    """Substitute ``inner`` (zero constant term) into ``outer``.

    The one-variable form yields a Series1, the two-variable form a
    Series2.  Evaluation is by Horner's scheme on numerators: h starts
    at outer_n and becomes h inner + outer_k for k = n - 1, ..., 1, and
    the composite is h inner + outer_0.  h is kept as numerator rows
    over one running denominator, and each step is cancelled before it
    takes the next factor, as in ``_powers``.  The product by ``inner``
    visits only its nonzero entries, so a sparse inner series such as
    x - y costs O(N^2) per step.  A one-variable series runs as rows of
    one entry each.
    """
    outer._require_same_ring(inner)
    ring = outer.ring
    if inner.constant_term != ring.zero:
        raise SeriesError("composition requires the inner series to have zero constant term")
    n = min(outer.order, inner.order)
    two_vars = isinstance(inner, Series2)
    rows = inner.rows[: n + 1] if two_vars else [(v,) for v in inner.coefficients[: n + 1]]
    I, d = _split_rows(ring, rows)
    terms = [(e, j, v) for e, row in enumerate(I) for j, v in enumerate(row) if v]
    # O[k - 1] / c is outer_k; outer_0 is added to the joined series.
    O, c = ring.split(outer.coefficients[1 : n + 1])
    H, D = [[0] * len(row) for row in rows], c
    if n:
        H[0][0] = O[n - 1]
    for k in range(n - 1, 0, -1):
        H, D = _times_terms(H, terms, n), D * d
        if D % c:
            grown = lcm(D, c)
            H = [[h * (grown // D) for h in row] for row in H]
            D = grown
        H[0][0] += O[k - 1] * (D // c)
        H, D = _cancel_rows(ring, H, D)
    joined = _join_rows(ring, _times_terms(H, terms, n), D * d)
    if two_vars:
        return Series2(joined, n, ring) + outer.coefficients[0]
    return Series1([row[0] for row in joined], n, ring) + outer.coefficients[0]


def power_table(g: Series1) -> tuple[Series1, ...]:
    """g^0, g^1, ..., g^n for a series g of order n with zero constant term.

    Built by repeated multiplication on numerators, n - 1 one-variable
    products, each cancelled to its reduced denominator.  The table is
    triangular, since g^a starts at x^a.
    """
    ring = g.ring
    if g.constant_term != ring.zero:
        raise SeriesError("composition requires the inner series to have zero constant term")
    n = g.order
    powers = [Series1.one(n, ring), g]
    powers.extend(Series1(ring.join(P, D), n, ring) for P, D in _powers(ring, g.coefficients, n))
    return tuple(powers[: n + 1])


def congruence(matrix: Series2, table: Sequence[Sequence]) -> Series2:
    """The coefficients sum over a, b of table[a][i] C[a][b] table[b][j].

    Here C[a][b] is the coefficient of x^a y^b in ``matrix`` and
    ``table[a][i]`` is a triangular table, zero for i < a.  When
    ``table[a][i] = [x^i] g^a`` the result is matrix(g(x), g(y)).  The
    two matrix products cost O(N^3) coefficient operations, and the
    order is the smaller of the matrix order and the table order.
    """
    ring = matrix.ring
    n = min(matrix.order, len(table[0]) - 1)
    C, c = _split_rows(ring, matrix.rows[: n + 1])
    rows, t = congruence_numerators(ring, C, table, n)
    return Series2(_join_rows(ring, rows, c * t), n, ring)


def compose_difference_numerators(outer: Series1, powers: tuple[Series1, ...]) -> tuple[list[list], int]:
    """Numerator rows and one denominator of ``compose_difference(outer, powers)``."""
    outer._require_same_ring(powers[0])
    ring = outer.ring
    n = min(outer.order, powers[0].order)
    numerators, c = ring.split(outer.coefficients[: n + 1])
    matrix = [
        [v * (comb(d, a) * (-1) ** (d - a)) for a in range(d + 1)] for d, v in enumerate(numerators)
    ]
    rows, t = congruence_numerators(ring, matrix, [p.coefficients for p in powers], n)
    return rows, c * t


def compose_difference(outer: Series1, powers: tuple[Series1, ...]) -> Series2:
    """outer(g(x) - g(y)), given the powers of g from ``power_table``.

    Expanding each (g(x) - g(y))^c binomially gives ``congruence`` with
    C[a][b] = outer_(a+b) binom(a+b, a) (-1)^b, the coefficients of
    outer(x - y), at O(N^3) coefficient operations against one
    two-variable product per outer coefficient for ``compose``.  The
    order is the smaller of the two operand orders, as for ``compose``.
    """
    rows, denominator = compose_difference_numerators(outer, powers)
    return Series2(_join_rows(outer.ring, rows, denominator), len(rows) - 1, outer.ring)


def compositional_inverse(series: Series1) -> tuple[Series1, tuple[Series1, ...]]:
    """The inverse g of G = x*(unit + ...) under composition, and its powers.

    The powers g^0, ..., g^n come from ``power_table``.  By the Lagrange inversion formula: writing G = x / phi, the inverse
    has g_m = [x^(m-1)] phi^m / m, so the inverse costs the m - 1
    one-variable products that build the powers of phi.  The powers of
    g come from multiplying g, never from the same formula, and give the
    check sum over a of G_a g^a = x at O(N^2).  Series of the form
    x*(unit) form a group under composition, so this one-sided check
    also gives g(G) = x.  A failed check would indicate a bug here, not
    bad input, and raises RuntimeError.
    """
    ring = series.ring
    if series.order < 1:
        raise InsufficientOrderError(
            "insufficient precision: compositional inversion needs at least the linear coefficient"
        )
    if series.constant_term != ring.zero or not ring.is_unit(series.coefficients[1]):
        raise NotInvertibleError("not invertible under composition")
    n = series.order
    phi = reciprocal(shift_down(series, 1))
    coeffs = [ring.zero, phi.coefficients[0]]
    for m, (P, D) in enumerate(_powers(ring, phi.coefficients, n), 2):
        coeffs.append(ring.join((P[m - 1],), m * D)[0])
    result = Series1(tuple(coeffs), n, ring)
    powers = power_table(result)
    G, d = ring.split(series.coefficients)
    P, t = _split_rows(ring, [p.coefficients[a:] for a, p in enumerate(powers)])
    composite = [0] * (n + 1)
    for a, c in enumerate(G):
        if c:
            for i, p in enumerate(P[a], a):
                if p:
                    composite[i] += c * p
    if ring.join(composite, d * t) != Series1.identity(n, ring).coefficients:
        raise RuntimeError("internal error: compositional inverse failed its round-trip check")
    return result, powers


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


def divide_by_x_minus_y(series: Series2) -> Series2:
    """Exact division by (x - y), one homogeneous layer at a time, on
    numerators (see ``divide_numerators_by_x_minus_y``)."""
    ring = series.ring
    rows, d = _split_rows(ring, series.rows)
    return Series2(_join_rows(ring, divide_numerators_by_x_minus_y(rows), d), series.order - 1, ring)
