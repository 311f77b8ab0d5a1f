"""Cells of a Young diagram and their arm, leg and hook length, kept as
a test oracle.

The package reads every cell statistic off the row lengths and their
conjugate, and never walks the cells.  The per-cell definitions live
here, next to the tests that check those statistics against them.
Cells are 1-based (row, column) pairs.
"""

from __future__ import annotations

from typing import Iterator

from hilbfock.partitions import Partition

# A cell is a 1-based (row, column) pair inside the Young diagram.
Cell = tuple[int, int]

EMPTY = Partition()


def cells(partition: Partition) -> Iterator[Cell]:
    """All cells of the diagram, row by row."""
    for i, row_length in enumerate(partition.parts, start=1):
        for j in range(1, row_length + 1):
            yield (i, j)


def contains(partition: Partition, cell: Cell) -> bool:
    i, j = cell
    return 1 <= i <= len(partition.parts) and 1 <= j <= partition.parts[i - 1]


def _check_cell(partition: Partition, cell: Cell) -> Cell:
    if not contains(partition, cell):
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
