"""Schur polynomials specialised to two variables.

On the middle-degree part of the Fock space, a class of the n-th
Hilbert scheme is recorded by a two-variable polynomial; the
fixed-point sum for Z(x, y) weights each pair of partitions by the
product of their two-variable Schur polynomials.
"""

from __future__ import annotations

from .partitions import Partition
from .rings import QQ
from .series import Series2


def schur_two_vars(partition: Partition) -> Series2:
    """The Schur polynomial specialised to two variables, to its degree.

    Partitions with three or more rows give the zero polynomial.  For a
    two-row partition (a, b) the specialisation is the homogeneous
    polynomial sum of x^i y^(a+b-i) over b <= i <= a, which is the
    quotient (x^(a+1) y^b - y^(a+1) x^b) / (x - y).
    """
    if partition.length > 2:
        return Series2((), partition.size)
    a, b = (*partition.parts, 0, 0)[:2]
    # The one nonzero row; the rows below it, and its tail, are zero padding.
    row = (QQ.zero,) * b + (QQ.one,) * (a - b + 1)
    return Series2(((),) * (a + b) + (row,), a + b)
