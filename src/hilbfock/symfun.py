"""Schur polynomials specialised to two variables.

On the middle-degree part of the Fock space, a class of the n-th
Hilbert scheme is recorded by a two-variable polynomial; the
fixed-point sum for Z(x, y) weights each pair of partitions by the
product of their two-variable Schur polynomials, each kept as its row
of integer coefficients.
"""

from __future__ import annotations

from .partitions import Partition


def schur_two_vars(partition: Partition) -> tuple[int, ...]:
    """The Schur polynomial in two variables as its coefficient row.

    Entry i, of |λ| + 1, is the coefficient of x^i y^(|λ|-i).  A
    two-row (a, b) gives 1 for b <= i <= a and 0 elsewhere, the quotient
    (x^(a+1) y^b - y^(a+1) x^b) / (x - y); three or more rows give zeros.
    """
    if partition.length > 2:
        return (0,) * (partition.size + 1)
    a, b = (*partition.parts, 0, 0)[:2]
    return (0,) * b + (1,) * (a - b + 1) + (0,) * b
