"""Arm, leg and hook length of one cell, kept as a test oracle.

The package reads every cell statistic off the row lengths and their
conjugate.  The per-cell definitions live here, next to the tests that
check those statistics against them.  Cells are 1-based (row, column)
pairs, as ``Partition.cells`` yields them.
"""

from __future__ import annotations

from hilbfock.partitions import Cell, Partition


def _check_cell(partition: Partition, cell: Cell) -> Cell:
    if not partition.contains(cell):
        raise ValueError(f"cell {cell} lies outside the diagram of {partition}")
    return cell


def arm(partition: Partition, cell: Cell) -> int:
    """Number of cells strictly to the right of the cell."""
    i, j = _check_cell(partition, cell)
    return partition.parts[i - 1] - j


def leg(partition: Partition, cell: Cell) -> int:
    """Number of cells strictly below the cell."""
    i, j = _check_cell(partition, cell)
    return sum(1 for row_length in partition.parts[i:] if row_length >= j)


def hook(partition: Partition, cell: Cell) -> int:
    return arm(partition, cell) + leg(partition, cell) + 1
