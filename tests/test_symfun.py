from fractions import Fraction as Fr

from cell_oracle import EMPTY
from fraction_kernels import divide_by_x_minus_y, series2_from_dict
from hilbfock.partitions import Partition, enumerate_partitions
from hilbfock.symfun import schur_two_vars


def quotient_row(partition: Partition) -> tuple:
    """The row of s_(a,b)(x, y) = (x^(a+1) y^b - x^b y^(a+1)) / (x - y),
    checked to vanish off degree a + b; three or more rows give zeros."""
    n = partition.size
    if partition.length > 2:
        return (Fr(0),) * (n + 1)
    a, b = (*partition.parts, 0, 0)[:2]
    numerator = series2_from_dict({(a + 1, b): Fr(1), (b, a + 1): Fr(-1)}, n + 1)
    quotient = divide_by_x_minus_y(numerator)
    for degree in range(n):
        assert not any(quotient.homogeneous(degree))
    return tuple(quotient.homogeneous(n))


# ----------------------------------------------------------- Schur values


def test_schur_small_cases():
    assert schur_two_vars(Partition((2,))) == (1, 1, 1)
    assert schur_two_vars(Partition((1, 1))) == (0, 1, 0)
    assert schur_two_vars(Partition((3, 1))) == (0, 1, 1, 1, 0)
    assert schur_two_vars(Partition((1, 1, 1))) == (0, 0, 0, 0)
    assert schur_two_vars(EMPTY) == (1,)


def test_schur_matches_quotient_definition():
    for n in range(9):
        for p in enumerate_partitions(n):
            row = schur_two_vars(p)
            assert isinstance(row, tuple)
            assert all(type(entry) is int for entry in row)
            assert row == quotient_row(p), p


def test_schur_is_homogeneous_of_partition_size():
    # one entry per monomial x^i y^(n - i); a two-row partition (a, b)
    # has its ones exactly on b <= i <= a
    for n in range(9):
        for p in enumerate_partitions(n):
            row = schur_two_vars(p)
            assert len(row) == n + 1
            ones = [i for i, entry in enumerate(row) if entry]
            if p.length <= 2:
                a, b = (*p.parts, 0, 0)[:2]
                assert ones == list(range(b, a + 1))
                assert set(row) <= {0, 1}
            else:
                assert ones == []


# ----------------------------------------------------------- Newton identity


def test_newton_identity_in_two_variables():
    # p_1^2 = (x + y)^2 = s_(2) + s_(1,1)
    rhs = [s + t for s, t in zip(schur_two_vars(Partition((2,))), schur_two_vars(Partition((1, 1))))]
    assert rhs == [1, 2, 1]
