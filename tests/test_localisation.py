from fractions import Fraction as Fr

import pytest

from cell_oracle import EMPTY
from fraction_kernels import one
from hilbfock.closedform import preset_class
from hilbfock.localisation import (
    FixedPointBasisVector,
    equivariant_class_coeffs,
    hook_coefficient,
    level_pairs,
    pair_coefficient,
    z_series_hookform,
    z_series_residue,
)
from hilbfock.partitions import Partition, enumerate_partitions
from hilbfock.series import InsufficientOrderError, Series1


def one_plus_x(order):
    return Series1([1, 1], order)


def pair(parts0, parts1):
    return FixedPointBasisVector(Partition(parts0), Partition(parts1))


# ---------------------------------------------------------- basis bookkeeping


def test_level_pairs_order_and_content():
    assert level_pairs(0) == (FixedPointBasisVector(EMPTY, EMPTY),)
    assert level_pairs(2) == (
        pair((2,), ()),
        pair((1, 1), ()),
        pair((1,), (1,)),
        pair((), (2,)),
        pair((), (1, 1)),
    )


def test_level_pairs_counts():
    # levels split as |lambda0| + |lambda1| = n, so the count is a convolution
    # of partition numbers: 1, 2, 5, 10, 20, 36 for n = 0..5
    assert [len(level_pairs(n)) for n in range(6)] == [1, 2, 5, 10, 20, 36]


def test_basis_vector_str_and_level():
    v = pair((2, 1), (1,))
    assert v.level == 4
    assert str(v) == "[(2,1), (1)]"


def test_level_pairs_rejects_a_negative_level_as_enumerate_partitions_does():
    for enumerate_level in (enumerate_partitions, level_pairs):
        with pytest.raises(ValueError, match="cannot partition a negative integer"):
            enumerate_level(-1)


# ---------------------------------------------------------- single coefficients


def test_vacuum_coefficient_is_one():
    vacuum = pair((), ())
    for gamma in (2, 3, 7):
        assert pair_coefficient(one_plus_x(3), vacuum, gamma) == 1


def test_level_one_coefficients_track_gamma():
    # at the fixed point carrying lambda1 = (1) the weights are gamma - 1
    # and -1, so the linear coefficient is (gamma - 2) times f_1
    todd = preset_class("todd", 5)
    for gamma in (2, 3, 5):
        for f, f1 in ((one_plus_x(5), Fr(1)), (todd, Fr(1, 2))):
            assert pair_coefficient(f, pair((), (1,)), gamma) == (gamma - 2) * f1
            assert pair_coefficient(f, pair((1,), ()), gamma) == 0


def test_equivariant_vector_examples():
    vec = equivariant_class_coeffs(one_plus_x(2), 2, 1)
    assert [value for _, value in vec.entries] == [0, 0]

    vec = dict(equivariant_class_coeffs(one_plus_x(2), 3, 1).entries)
    assert vec[pair((1,), ())] == 0
    assert vec[pair((), (1,))] == 1


def test_gamma_three_level_two_chern_values():
    vec = dict(equivariant_class_coeffs(one_plus_x(4), 3, 2).entries)
    assert vec[pair((2,), ())] == Fr(-5, 2)
    assert vec[pair((1, 1), ())] == Fr(-5, 2)
    assert vec[pair((1,), (1,))] == 3
    assert vec[pair((), (2,))] == Fr(-7, 2)
    assert vec[pair((), (1, 1))] == Fr(-13, 3)


def test_coefficient_preconditions():
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        equivariant_class_coeffs(one_plus_x(1), 2, 2)
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        pair_coefficient(one_plus_x(1), pair((2,), ()), 2)
    with pytest.raises(ValueError, match="constant term 1"):
        equivariant_class_coeffs(Series1([2, 1], 3), 2, 1)
    with pytest.raises(ValueError, match="constant term 1"):
        pair_coefficient(Series1([2, 1], 3), pair((1,), ()), 2)
    with pytest.raises(ValueError, match="constant term 1"):
        hook_coefficient(Series1([2, 1], 3), pair((1,), ()))


def test_degenerate_twist_is_reported():
    # at gamma = 0 some primed cell polynomials vanish, and the fixed-point
    # expansion has no finite answer
    with pytest.raises(ValueError, match="degenerate fixed-point denominator"):
        equivariant_class_coeffs(one_plus_x(4), 0, 2)


# ---------------------------------------------------------- gamma = 2 reduction


def test_hook_form_matches_general_form_at_gamma_two():
    todd = preset_class("todd", 6)
    for f in (one_plus_x(6), todd):
        for n in range(7):
            for fixture in level_pairs(n):
                assert hook_coefficient(f, fixture) == pair_coefficient(f, fixture, 2)


# ---------------------------------------------------------- generating series


def test_hookform_degree_zero_and_odd_degrees():
    Z = z_series_hookform(one_plus_x(9), 9)
    assert Z.coefficient(0, 0) == 1
    for d in (1, 3, 5, 7, 9):
        assert all(value == 0 for value in Z.homogeneous(d))


def test_hookform_low_degrees_for_chern_total():
    Z = z_series_hookform(one_plus_x(4), 4)
    assert Z.homogeneous(2) == (Fr(-3), Fr(-6), Fr(-3))
    assert Z.homogeneous(4) == (Fr(10), Fr(20), Fr(34), Fr(20), Fr(10))


def test_hookform_is_symmetric():
    Z = z_series_hookform(preset_class("todd", 6), 6)
    assert Z == Z.swap()


def test_residue_form_low_degrees():
    Z = z_series_residue(one_plus_x(6), 4)
    assert Z.homogeneous(0) == (Fr(1),)
    assert Z.homogeneous(2) == (Fr(-3), Fr(-6), Fr(-3))
    assert Z.homogeneous(4) == (Fr(10), Fr(20), Fr(34), Fr(20), Fr(10))


def test_residue_and_hookform_agree():
    trivial = one(10)
    for f in (trivial, one_plus_x(10)):
        lhs = z_series_residue(f, 8)
        rhs = z_series_hookform(f, 8)
        for d in range(9):
            assert lhs.homogeneous(d) == rhs.homogeneous(d)


def test_series_order_preconditions():
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        z_series_hookform(one_plus_x(3), 4)
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        z_series_residue(one_plus_x(5), 4)
