"""Partitions, Young diagrams and their cell statistics.

Cells are addressed as 1-based (row, column) pairs.  For a cell w the
arm a(w) counts the cells strictly to its right, the leg l(w) counts
the cells strictly below, and the hook length is h(w) = a(w) + l(w) + 1.
The statistics below read arms and legs off the row lengths and their
conjugate (the column lengths), with no test of cell membership.

The localisation formulas divide by the weighted cell product

    c_prime(lambda; alpha, beta) = prod over w of (alpha*l(w) + beta*(a(w)+1)),

which specialises to the hook product at alpha = beta = 1.  The
weight multiset W(lambda; alpha, beta) holds, for every cell, the pair

    alpha*(l(w)+1) + beta*a(w)   and   -alpha*l(w) - beta*(a(w)+1),

so it has exactly 2*|lambda| elements.  At alpha = beta = +-1 these are
the hook lengths with both signs, which is what collapses the general
formula to a pure hook-length expression.
"""

from __future__ import annotations

from functools import cache
from operator import index

from .rings import Frozen


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros in the input are stripped so that every partition
    has exactly one stored representation.  Parts must be integers
    (anything with ``__index__``); anything else raises TypeError.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()) -> None:
        parts = tuple(index(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for p in parts:
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    # The per-diagram cache's key: compare and hash the parts, not the field tuple.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@cache
def _arms_and_legs(partition: Partition) -> tuple[tuple[int, int], ...]:
    """The (arm, leg) of every cell, row by row, from the row lengths and
    their conjugate: the cell in 0-based row i and column j has arm
    parts[i] - j - 1 and leg conjugate[j] - i - 1.  Computed once per
    diagram and process: each statistic below reads it."""
    parts = partition.parts
    conjugate = [sum(1 for r in parts if r > j) for j in range(parts[0])] if parts else []
    return tuple((r - j - 1, conjugate[j] - i - 1) for i, r in enumerate(parts) for j in range(r))


def hook_multiset(partition: Partition) -> tuple[int, ...]:
    """All hook lengths, sorted."""
    return tuple(sorted(a + l + 1 for a, l in _arms_and_legs(partition)))


def hook_product(partition: Partition) -> int:
    product = 1
    for a, l in _arms_and_legs(partition):
        product *= a + l + 1
    return product


def c_prime_product(partition: Partition, alpha, beta):
    """c_prime(lambda; alpha, beta); an int for the integer alpha and beta of the fixed points."""
    product = 1
    for a, l in _arms_and_legs(partition):
        product *= alpha * l + beta * (a + 1)
    return product


def weight_multiset(partition: Partition, alpha, beta) -> tuple:
    """The 2|lambda| tangent weights attached to the diagram, sorted.

    Sorting fixes a canonical representation; the callers only ever
    take products over the multiset, so the order carries no meaning.
    """
    weights = []
    for a, l in _arms_and_legs(partition):
        weights.append(alpha * (l + 1) + beta * a)
        weights.append(-alpha * l - beta * (a + 1))
    return tuple(sorted(weights))


_partitions: dict[int, tuple[Partition, ...]] = {0: (Partition(),)}


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, (n) first.

    A partition of n is a first part p followed by a partition of n - p
    whose parts are at most p.  Each tuple is built once per process and
    kept in a dict: behind ``functools.cache`` the function would not be
    a plain function, and ``perfbench/tracer.py`` wraps only those.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n not in _partitions:
        _partitions[n] = tuple(
            Partition((first, *rest.parts))
            for first in range(n, 0, -1)
            for rest in enumerate_partitions(n - first)
            if not rest.parts or rest.parts[0] <= first
        )
    return _partitions[n]
