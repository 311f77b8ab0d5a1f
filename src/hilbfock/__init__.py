"""Exact characteristic-class tables for Hilbert schemes of points.

The package computes, in exact rational arithmetic, the coefficient
tables of multiplicative characteristic classes (and of the Chern
character) of Hilbert schemes of points on line-bundle surfaces over
the projective line.  Two independent computations are provided, one
by equivariant fixed-point sums and one by closed generating
functions, and the test suite insists that they agree coefficient by
coefficient.
"""

from __future__ import annotations

from .closedform import (
    CoeffTable,
    a_k_table,
    a_kl_table,
    big_g,
    chern_character_tables,
    corollary_via_dual,
    preset_class,
    small_g,
    tangent_tables,
    taut_tables,
    to_universal,
    z_closed,
)
from .localisation import (
    EquivariantClassVector,
    FixedPointBasisVector,
    equivariant_class_coeffs,
    hook_coefficient,
    level_pairs,
    pair_coefficient,
    z_series_hookform,
    z_series_residue,
)
from .partitions import Partition, enumerate_partitions
from .rings import DUALS, QQ, DualNumber, Ring
from .series import (
    InsufficientOrderError,
    NotInvertibleError,
    Series1,
    Series2,
    SeriesError,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffTable",
    "DUALS",
    "DualNumber",
    "EquivariantClassVector",
    "FixedPointBasisVector",
    "InsufficientOrderError",
    "NotInvertibleError",
    "Partition",
    "QQ",
    "Ring",
    "Series1",
    "Series2",
    "SeriesError",
    "a_k_table",
    "a_kl_table",
    "big_g",
    "chern_character_tables",
    "corollary_via_dual",
    "enumerate_partitions",
    "equivariant_class_coeffs",
    "hook_coefficient",
    "level_pairs",
    "pair_coefficient",
    "preset_class",
    "small_g",
    "tangent_tables",
    "taut_tables",
    "to_universal",
    "z_closed",
    "z_series_hookform",
    "z_series_residue",
    "__version__",
]
