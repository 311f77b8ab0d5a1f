"""Exact coefficient rings for the series layer.

Two rings are supported: the rationals, and the dual numbers over the
rationals (epsilon with epsilon squared equal to zero).  Dual numbers
carry first-order perturbation data through an otherwise rational
computation, which is how the additive Chern-character tables fall out
of the multiplicative machinery.

Nothing here is floating point.  Every coefficient in the whole package
is either a ``Fraction`` or a ``DualNumber`` built from two of them, and
``DualNumber`` with int parts is also the numerator type of ``DUALS``.
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

    A subclass lists its fields in ``__slots__``, in constructor order.
    The base supplies the constructor, which takes every field,
    positionally or by name, and sets them in order; a subclass writes
    its own ``__init__`` only to check or coerce its arguments, and then
    calls this one.  The base also supplies field-wise equality (only
    within one class), a hash over the fields, a ``Name(field=value,
    ...)`` repr, immutability, and a ``__reduce__`` that rebuilds
    through the constructor, which is what ``copy`` and ``pickle`` use.
    It stands in for frozen dataclasses, whose machinery costs about
    10 ms of start-up in every CLI process.  ``DualNumber``, built once
    per numerator operation, is not one: it skips ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__} is missing the field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__qualname__} got an unknown or repeated field {sorted(kwargs)[0]!r}")

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
_new = object.__new__


class DualNumber:
    """An element ``value + infinitesimal * eps`` of Q[eps]/(eps^2), or
    the numerator of one in ``DUALS.split``.

    Arithmetic follows the single defining relation eps^2 = 0, so
    multiplication is (a + b eps)(c + d eps) = ac + (ad + bc) eps.
    Ints and Fractions mix freely with dual numbers under +, * and /.
    There is no binary -: a difference is written a + (-b).

    The constructor makes both parts Fractions, and so do ``inverse``
    and /.  A numerator has int parts and a nonzero eps part; +, unary -
    and * keep the type of the parts, and a result with int parts whose
    eps part cancels comes back as that int, so the real parts of a
    kernel run on plain ints and a numerator is never zero.
    """

    __slots__ = ("_value", "_infinitesimal")

    def __init__(self, value: Fraction, infinitesimal: Fraction = _ZERO) -> None:
        self._value = value if type(value) is Fraction else to_fraction(value)
        self._infinitesimal = infinitesimal if type(infinitesimal) is Fraction else to_fraction(infinitesimal)

    value = property(lambda self: self._value)
    infinitesimal = property(lambda self: self._infinitesimal)

    @staticmethod
    def lift(other: Any) -> "DualNumber | None":
        if isinstance(other, DualNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return DualNumber(other)
        return None

    def __add__(self, other: Any) -> "DualNumber | int":
        # ints first, here and in *: kernel sums start at the int 0 and products take int scales
        if type(other) is int:
            return _dual(self._value + other, self._infinitesimal)
        if type(other) is DualNumber:
            return _dual(self._value + other._value, self._infinitesimal + other._infinitesimal)
        if isinstance(other, (int, Fraction)):
            return _dual(self._value + other, self._infinitesimal)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "DualNumber":
        return _dual(-self._value, -self._infinitesimal)

    def __mul__(self, other: Any) -> "DualNumber | int":
        if type(other) is int:
            return _dual(self._value * other, self._infinitesimal * other)
        if type(other) is DualNumber:
            a, c = self._value, other._value
            return _dual(a * c, a * other._infinitesimal + self._infinitesimal * c)
        if isinstance(other, (int, Fraction)):
            return _dual(self._value * other, self._infinitesimal * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "DualNumber":
        if self._value == 0:
            raise ZeroDivisionError("dual number with zero rational part is not invertible")
        inv = Fraction(1, self._value)
        return DualNumber(inv, -self._infinitesimal * inv * inv)

    def __truediv__(self, other: Any) -> "DualNumber":
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return self * lifted.inverse()

    def __eq__(self, other: Any) -> bool:
        lifted = DualNumber.lift(other)
        if lifted is None:
            return NotImplemented
        return self._value == lifted._value and self._infinitesimal == lifted._infinitesimal

    def __hash__(self) -> int:
        if self._infinitesimal == 0:
            return hash(self._value)
        return hash((self._value, self._infinitesimal))

    def __bool__(self) -> bool:
        return self._infinitesimal != 0 or self._value != 0

    def __repr__(self) -> str:
        return f"DualNumber({self._value}, {self._infinitesimal})"

    def __str__(self) -> str:
        if self._infinitesimal == 0:
            return str(self._value)
        if self._value == 0:
            return f"{self._infinitesimal}*eps"
        return f"{self._value} + {self._infinitesimal}*eps"


def _dual(a: Any, b: Any) -> "DualNumber | int":
    """a + b eps with the parts as given, or the int a where b is the int 0."""
    if type(b) is int and not b:
        return a
    new = _new(DualNumber)
    new._value = a
    new._infinitesimal = b
    return new


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
    denominator; the numerators support +, unary -, * and truth tests,
    and mix with ints, so a kernel writes a difference as a + -b.  They
    are ints over the rationals, and over the dual numbers ``DualNumber``s
    a + b eps with int parts, or the int a where b = 0, so the kernels run
    on ints for both rings.  ``cancel(numerators, denominator)`` divides
    both by their common factor, which keeps a chain of products at the size of
    its reduced terms.  ``join(numerators, denominator)`` returns the
    tuple of ring elements numerators[i] / denominator, for any positive
    int denominator.  A kernel splits its operands, runs on the
    numerators and keeps track of the denominator as an int, and joins
    once, where it returns coefficients.
    """

    __slots__ = ("name", "zero", "one", "coerce", "is_unit", "split", "cancel", "join")

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


def _parts(numerator: Any) -> tuple:
    """(a, b) of a numerator a + b eps, where an int n is n + 0 eps."""
    if type(numerator) is DualNumber:
        return numerator._value, numerator._infinitesimal
    return numerator, 0


def _split_duals(values: Sequence[DualNumber]) -> tuple[list, int]:
    """Numerators a + b eps over the lcm of the denominators of both parts of every value."""
    flat, denominator = _split_rationals([x for v in values for x in (v._value, v._infinitesimal)])
    return list(map(_dual, flat[::2], flat[1::2])), denominator


def _cancel_duals(numerators: Sequence, denominator: int) -> tuple[list, int]:
    parts = list(map(_parts, numerators))
    common = gcd(denominator, *(x for pair in parts for x in pair))
    return [_dual(a // common, b // common) for a, b in parts], denominator // common


def _join_duals(numerators: Sequence, denominator: int) -> tuple[DualNumber, ...]:
    flat = _join_rationals([x for v in numerators for x in _parts(v)], denominator)
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
