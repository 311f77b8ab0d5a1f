"""Exact coefficient rings for the series layer.

Two rings are supported: the rationals, and the dual numbers over the
rationals (epsilon with epsilon squared equal to zero).  Dual numbers
carry first-order perturbation data through an otherwise rational
computation, which is how the additive Chern-character tables fall out
of the multiplicative machinery.

Nothing here is floating point.  Every coefficient in the whole package
is either a ``Fraction`` or a ``DualNumber`` built from two of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Sequence


def to_fraction(value: Any) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting everything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {value!r}")


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, in constructor order,
    and sets them in ``__init__`` through ``object.__setattr__``.  The
    base supplies field-wise equality (only within one class), a hash
    over the fields, a ``Name(field=value, ...)`` repr, immutability,
    and a ``__reduce__`` that rebuilds through the constructor, which is
    what ``copy`` and ``pickle`` use.  It stands in for frozen
    dataclasses, whose machinery costs about 10 ms of start-up in every
    CLI process.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


_ZERO = Fraction(0)


class DualNumber(Frozen):
    """An element ``value + infinitesimal * eps`` of Q[eps]/(eps^2).

    Arithmetic follows the single defining relation eps^2 = 0, so
    multiplication is (a + b eps)(c + d eps) = ac + (ad + bc) eps.
    Ints and Fractions mix freely with dual numbers in expressions.
    """

    __slots__ = ("value", "infinitesimal")

    def __init__(self, value: Fraction, infinitesimal: Fraction = _ZERO) -> None:
        if type(value) is not Fraction:
            value = to_fraction(value)
        if type(infinitesimal) is not Fraction:
            infinitesimal = to_fraction(infinitesimal)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "infinitesimal", infinitesimal)

    @staticmethod
    def lift(other: Any) -> "DualNumber | None":
        if isinstance(other, DualNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return DualNumber(to_fraction(other))
        return None

    def __add__(self, other: Any) -> "DualNumber":
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return DualNumber(self.value + lifted.value, self.infinitesimal + lifted.infinitesimal)

    __radd__ = __add__

    def __neg__(self) -> "DualNumber":
        return DualNumber(-self.value, -self.infinitesimal)

    def __sub__(self, other: Any) -> "DualNumber":
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return self + (-lifted)

    def __rsub__(self, other: Any) -> "DualNumber":
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return lifted + (-self)

    def __mul__(self, other: Any) -> "DualNumber":
        lifted = other if type(other) is DualNumber else DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return DualNumber(
            self.value * lifted.value,
            self.value * lifted.infinitesimal + self.infinitesimal * lifted.value,
        )

    __rmul__ = __mul__

    def inverse(self) -> "DualNumber":
        if self.value == 0:
            raise ZeroDivisionError("dual number with zero rational part is not invertible")
        inv = 1 / self.value
        return DualNumber(inv, -self.infinitesimal * inv * inv)

    def __truediv__(self, other: Any) -> "DualNumber":
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return self * lifted.inverse()

    def __eq__(self, other: Any) -> bool:
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return self.value == lifted.value and self.infinitesimal == lifted.infinitesimal

    def __hash__(self) -> int:
        if self.infinitesimal == 0:
            return hash(self.value)
        return hash((self.value, self.infinitesimal))

    def __bool__(self) -> bool:
        return self.value != 0 or self.infinitesimal != 0

    def __repr__(self) -> str:
        return f"DualNumber({self.value}, {self.infinitesimal})"

    def __str__(self) -> str:
        if self.infinitesimal == 0:
            return str(self.value)
        if self.value == 0:
            return f"{self.infinitesimal}*eps"
        return f"{self.value} + {self.infinitesimal}*eps"


def _to_dual(value: Any) -> DualNumber:
    lifted = DualNumber.lift(value)
    if lifted is None:
        raise TypeError(f"expected a dual number or rational, got {value!r}")
    return lifted


class Ring(Frozen):
    """Descriptor bundling the constants and predicates the series layer needs.

    Series code never inspects coefficient types directly; it asks the
    ring to coerce incoming values and to decide invertibility.

    ``split``, ``cancel`` and ``join`` give the series kernels one body
    for both rings.  ``split(values)`` returns numerators and one
    denominator, a positive int, with values[i] = numerators[i] /
    denominator; the numerators support +, -, * and truth tests, and mix
    with ints.  They are ints over the rationals, and integer pairs
    a + b eps (``_DualNumerator``, or an int where b = 0) over the dual
    numbers, so the kernels run on ints for both rings.
    ``cancel(numerators, denominator)`` divides both by
    their common factor, which keeps a chain of products at the size of
    its reduced terms.  ``join(numerators, denominator)`` returns the
    tuple of ring elements numerators[i] / denominator, for any positive
    int denominator.  A kernel splits its operands, runs on the
    numerators and keeps track of the denominator as an int, and joins
    once, where it returns coefficients.
    """

    __slots__ = ("name", "zero", "one", "coerce", "is_unit", "split", "cancel", "join")

    def __init__(
        self,
        name: str,
        zero: Any,
        one: Any,
        coerce: Callable[[Any], Any],
        is_unit: Callable[[Any], bool],
        split: Callable[[Sequence], tuple[list, int]],
        cancel: Callable[[Sequence, int], tuple[list, int]],
        join: Callable[[Sequence, int], tuple],
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "coerce", coerce)
        object.__setattr__(self, "is_unit", is_unit)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "cancel", cancel)
        object.__setattr__(self, "join", join)

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> str | tuple:
        # Series code compares rings by identity, so copy, deepcopy and
        # pickle hand back the module-level rings by name.
        for name in ("QQ", "DUALS"):
            if globals().get(name) is self:
                return name
        return super().__reduce__()


def _split_rationals(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators."""
    denominators = [v.denominator for v in values]
    denominator = lcm(*denominators)
    return [v.numerator * (denominator // q) for v, q in zip(values, denominators)], denominator


def _cancel_rationals(numerators: Sequence[int], denominator: int) -> tuple[list[int], int]:
    common = gcd(denominator, *numerators)
    return [v // common for v in numerators], denominator // common


def _join_rationals(numerators: Sequence[int], denominator: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, denominator) if v else _ZERO for v in numerators)


class _DualNumerator:
    """The numerator a + b eps of a dual number in ``DUALS.split``, with
    a and b ints and b nonzero.

    It supplies what the series kernels ask of a numerator: +, -, * and
    mixing with ints.  An int n stands for n + 0 eps, and every result
    whose eps part cancels comes back as an int, so the real parts of a
    kernel run on plain ints and an instance is never zero: it is true
    in a truth test, and a zero is the int 0.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __add__(self, other: Any) -> "_DualNumerator | int":
        if type(other) is _DualNumerator:
            b = self.b + other.b
            return _DualNumerator(self.a + other.a, b) if b else self.a + other.a
        if isinstance(other, int):
            return _DualNumerator(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "_DualNumerator":
        return _DualNumerator(-self.a, -self.b)

    def __sub__(self, other: Any) -> "_DualNumerator | int":
        if type(other) is _DualNumerator:
            b = self.b - other.b
            return _DualNumerator(self.a - other.a, b) if b else self.a - other.a
        if isinstance(other, int):
            return _DualNumerator(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other: Any) -> "_DualNumerator":
        if isinstance(other, int):
            return _DualNumerator(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other: Any) -> "_DualNumerator | int":
        a = self.a
        if type(other) is _DualNumerator:
            c = other.a
            b = a * other.b + self.b * c
            return _DualNumerator(a * c, b) if b else a * c
        if isinstance(other, int):
            return _DualNumerator(a * other, self.b * other) if other else 0
        return NotImplemented

    __rmul__ = __mul__


def _unpack(numerators: Sequence) -> list[int]:
    """a_0, b_0, a_1, b_1, ... of numerators a_i + b_i eps."""
    flat = []
    for v in numerators:
        flat.extend((v.a, v.b) if type(v) is _DualNumerator else (v, 0))
    return flat


def _pack(flat: Sequence[int]) -> list:
    """The numerators a_i + b_i eps of a_0, b_0, a_1, b_1, ..."""
    return [_DualNumerator(a, b) if b else a for a, b in zip(flat[::2], flat[1::2])]


def _split_duals(values: Sequence[DualNumber]) -> tuple[list, int]:
    """Integer numerators a + b eps over the lcm of the denominators of
    both parts of every value."""
    flat, denominator = _split_rationals([x for v in values for x in (v.value, v.infinitesimal)])
    return _pack(flat), denominator


def _cancel_duals(numerators: Sequence, denominator: int) -> tuple[list, int]:
    flat, denominator = _cancel_rationals(_unpack(numerators), denominator)
    return _pack(flat), denominator


def _join_duals(numerators: Sequence, denominator: int) -> tuple[DualNumber, ...]:
    flat = _join_rationals(_unpack(numerators), denominator)
    return tuple(map(DualNumber, flat[::2], flat[1::2]))


QQ = Ring(
    "QQ",
    Fraction(0),
    Fraction(1),
    to_fraction,
    lambda c: c != 0,
    _split_rationals,
    _cancel_rationals,
    _join_rationals,
)

DUALS = Ring(
    "QQ[eps]",
    DualNumber(Fraction(0)),
    DualNumber(Fraction(1)),
    _to_dual,
    lambda c: c.value != 0,
    _split_duals,
    _cancel_duals,
    _join_duals,
)
