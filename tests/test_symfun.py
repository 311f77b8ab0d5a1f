from fractions import Fraction as Fr

from cell_oracle import EMPTY
from fraction_kernels import add, series2_from_dict
from hilbfock.partitions import Partition, enumerate_partitions
from hilbfock.series import Series2, divide_by_x_minus_y
from hilbfock.symfun import schur_two_vars


def nonzero(series):
    """All nonzero entries of a Series2 as an {(i, j): value} dict."""
    entries = {}
    for degree in range(series.order + 1):
        for i, value in enumerate(series.homogeneous(degree)):
            if value:
                entries[(i, degree - i)] = value
    return entries


# ----------------------------------------------------------- Schur values


def test_schur_small_cases():
    assert nonzero(schur_two_vars(Partition((2,)))) == {
        (2, 0): Fr(1),
        (1, 1): Fr(1),
        (0, 2): Fr(1),
    }
    assert nonzero(schur_two_vars(Partition((1, 1)))) == {(1, 1): Fr(1)}
    assert nonzero(schur_two_vars(Partition((1, 1, 1)))) == {}
    assert nonzero(schur_two_vars(EMPTY)) == {(0, 0): Fr(1)}


def test_schur_matches_quotient_definition():
    # s_(a,b)(x, y) = (x^(a+1) y^b - x^b y^(a+1)) / (x - y)
    for a in range(5):
        for b in range(a + 1):
            order = a + b + 1
            numerator = series2_from_dict(
                {(a + 1, b): Fr(1), (b, a + 1): Fr(-1)}, order
            )
            expected = divide_by_x_minus_y(numerator)
            p = Partition((a, b)) if b else (Partition((a,)) if a else EMPTY)
            got = schur_two_vars(p, order - 1)
            assert nonzero(got) == nonzero(expected)


def test_schur_is_homogeneous_of_partition_size():
    for n in range(5):
        for p in enumerate_partitions(n):
            for (i, j), value in nonzero(schur_two_vars(p)).items():
                assert i + j == n
                assert value != 0


# ----------------------------------------------------------- Newton identity


def test_newton_identity_in_two_variables():
    # p_1^2 = (x + y)^2 = s_(2) + s_(1,1)
    lhs = series2_from_dict({(2, 0): Fr(1), (1, 1): Fr(2), (0, 2): Fr(1)}, 2)
    rhs = add(schur_two_vars(Partition((2,))), schur_two_vars(Partition((1, 1))))
    assert nonzero(lhs) == nonzero(rhs)
