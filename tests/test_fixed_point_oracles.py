"""The power-sum fixed-point sums checked against plain products.

The oracles below multiply one rescaled copy of the class series per
tangent weight (or per hook length) and read off the top coefficient,
which is the localisation formula taken literally.  The library takes
the logarithm once and exponentiates power sums instead; the two must
agree exactly, including on which pair a degenerate twist fails.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import verification
from hilbfock.closedform import PRESET_NAMES, preset_class
from hilbfock.localisation import (
    FixedPointBasisVector,
    equivariant_class_coeffs,
    hook_coefficient,
    level_pairs,
    pair_coefficient,
    tangent_weights,
    z_series_hookform,
)
from hilbfock.partitions import c_prime_product, hook, hook_product
from hilbfock.rings import DUALS, DualNumber
from hilbfock.series import Series1, Series2, negate_argument, scale_argument
from hilbfock.symfun import schur_two_vars


def oracle_pair_coefficient(f: Series1, pair: FixedPointBasisVector, gamma: int):
    n = pair.level
    denominator = c_prime_product(pair.lambda0, -1, -1) * c_prime_product(
        pair.lambda1, gamma - 1, 1
    )
    if denominator == 0:
        raise ValueError(f"degenerate fixed-point denominator for {pair} at gamma={gamma}")
    truncated = f.truncate(n)
    numerator = Series1.one(n, f.ring)
    for w in tangent_weights(pair, gamma):
        numerator = numerator * scale_argument(truncated, w)
    return numerator.coefficient(n) / denominator


def oracle_hook_from_even_part(F: Series1, pair: FixedPointBasisVector):
    n = pair.level
    truncated = F.truncate(n)
    numerator = Series1.one(n, F.ring)
    for partition in (pair.lambda0, pair.lambda1):
        for cell in partition.cells():
            numerator = numerator * scale_argument(truncated, hook(partition, cell))
    sign = -1 if pair.lambda0.size % 2 else 1
    denominator = hook_product(pair.lambda0) * hook_product(pair.lambda1)
    return Fr(sign) * numerator.coefficient(n) / denominator


def oracle_hook_coefficient(f: Series1, pair: FixedPointBasisVector):
    n = pair.level
    return oracle_hook_from_even_part(f.truncate(n) * negate_argument(f.truncate(n)), pair)


def oracle_z_series_hookform(f: Series1, N: int) -> Series2:
    fN = f.truncate(N)
    F = fN * negate_argument(fN)
    total = Series2.zero(N)
    for n in range(N + 1):
        for pair in level_pairs(n):
            if pair.lambda0.length <= 2 and pair.lambda1.length <= 2:
                coefficient = oracle_hook_from_even_part(F, pair)
                schur_product = schur_two_vars(pair.lambda0, N) * schur_two_vars(pair.lambda1, N)
                total = total + schur_product * coefficient
    return total


def oracle_vector(f: Series1, gamma: int, n: int) -> list:
    return [(pair, oracle_pair_coefficient(f, pair, gamma)) for pair in level_pairs(n)]


def assert_matches_oracle(f: Series1, gamma: int, n: int) -> None:
    assert list(equivariant_class_coeffs(f, gamma, n).entries) == oracle_vector(f, gamma, n)


def error_or_vector(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


# ------------------------------------------------------------- general twist


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_oracle_through_level_seven(name):
    f = preset_class(name, 7).f
    for gamma in range(1, 6):
        for n in range(8):
            assert_matches_oracle(f, gamma, n)


def test_single_pair_entry_point_matches_oracle():
    f = preset_class("todd", 6).f
    for gamma in (1, 3, 5):
        for n in (0, 3, 6):
            for fixture in level_pairs(n):
                assert pair_coefficient(f, fixture, gamma) == oracle_pair_coefficient(
                    f, fixture, gamma
                )


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=30, deadline=None)
@given(
    tail=st.lists(small_rationals, min_size=1, max_size=5),
    gamma=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=0, max_value=5),
)
def test_random_classes_match_oracle(tail, gamma, n):
    f = Series1.from_coefficients((Fr(1), *tail), max(n, 1))
    assert_matches_oracle(f, gamma, n)
    for fixture in level_pairs(n):
        assert hook_coefficient(f, fixture) == oracle_hook_coefficient(f, fixture)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dual_number_class_matches_oracle(k):
    # f = 1 + eps x^k: the product over the weights is 1 + eps p_k(W) u^k,
    # and p_k(W) is nonzero somewhere at level k except for odd k at
    # gamma = 2, where the weights are the hook lengths with both signs
    eps = DualNumber(Fr(0), Fr(1))
    coefficients = [DualNumber(Fr(1))] + [DualNumber(Fr(0))] * 4
    coefficients[k] = eps
    f = Series1.from_coefficients(coefficients, ring=DUALS)
    for gamma in (1, 2, 3):
        for n in range(5):
            vector = equivariant_class_coeffs(f, gamma, n)
            assert list(vector.entries) == oracle_vector(f, gamma, n)
            if n == k and (k % 2 == 0 or gamma != 2):
                assert any(value.infinitesimal for _, value in vector.entries)
            for fixture in level_pairs(n):
                assert hook_coefficient(f, fixture) == oracle_hook_coefficient(f, fixture)


# ------------------------------------------------------------- degenerate twists


@pytest.mark.parametrize("gamma", range(-4, 7))
def test_degenerate_twists_fail_on_the_same_pair(gamma):
    f = preset_class("todd", 4).f
    for n in range(5):
        expected = error_or_vector(lambda: oracle_vector(f, gamma, n))
        actual = error_or_vector(lambda: list(equivariant_class_coeffs(f, gamma, n).entries))
        assert actual == expected
        for fixture in level_pairs(n):
            assert error_or_vector(lambda: pair_coefficient(f, fixture, gamma)) == (
                error_or_vector(lambda: oracle_pair_coefficient(f, fixture, gamma))
            )


def test_sweep_reaches_degenerate_twists():
    f = preset_class("todd", 4).f
    failing = [
        gamma
        for gamma in range(-4, 7)
        if isinstance(error_or_vector(lambda: equivariant_class_coeffs(f, gamma, 4)), str)
    ]
    assert failing == [-2, -1, 0]


# ------------------------------------------------------------- hook form


def test_hook_form_matches_oracle_on_two_row_pairs():
    for name in PRESET_NAMES:
        f = preset_class(name, 8).f
        for n in range(9):
            for fixture in level_pairs(n):
                if fixture.lambda0.length <= 2 and fixture.lambda1.length <= 2:
                    assert hook_coefficient(f, fixture) == oracle_hook_coefficient(f, fixture)
        assert z_series_hookform(f, 8) == oracle_z_series_hookform(f, 8)


def test_reduction_check_names_the_first_differing_pair(monkeypatch):
    f = preset_class("todd", 6).f
    assert verification._check_reduction(f, 4) == ""
    skewed_pair = level_pairs(3)[1]

    def skewed(f, pair):
        value = hook_coefficient(f, pair)
        return value + 1 if pair == skewed_pair else value

    monkeypatch.setattr(verification, "hook_coefficient", skewed)
    message = verification._check_reduction(f, 4)
    assert message.startswith(f"pair {skewed_pair}: general twist-2 coefficient")
