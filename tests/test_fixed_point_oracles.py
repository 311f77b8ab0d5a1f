"""The power-sum fixed-point sums checked against plain products.

The oracles below multiply one rescaled copy of the class series per
tangent weight (or per hook length) and read off the top coefficient,
which is the localisation formula taken literally.  The library takes
the logarithm once and exponentiates power sums instead; the two must
agree exactly, including on which pair a degenerate twist fails.

The residue route is checked the same way: its oracle forms the
two-variable product P F(a)^(r+1) F(b)^(s+1) for every cell (r, s) and
reads one coefficient of each, where the library contracts P with the
one-variable powers of F.
"""

from fractions import Fraction as Fr
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import cli, localisation, partitions, series, verification
from hilbfock.closedform import PRESET_NAMES, preset_class, z_closed
from hilbfock.localisation import (
    FixedPointBasisVector,
    equivariant_class_coeffs,
    hook_coefficient,
    level_pairs,
    pair_coefficient,
    z_series_hookform,
    z_series_residue,
)
from hilbfock.partitions import (
    Partition,
    c_prime_product,
    enumerate_partitions,
    hook_multiset,
    hook_product,
    weight_multiset,
)
from hilbfock.rings import DUALS, QQ, DualNumber
from hilbfock.series import (
    InternalCheckError,
    Series1,
    Series2,
    compose,
    divide_by_x_minus_y,
    log_numerators,
    negate_argument,
    reciprocal,
    shift_up,
)

import fraction_kernels
from cell_oracle import cells, hook
from exp_oracle import series_exp
from fraction_kernels import add, in_x, in_y, monomial, negate, scale, scale_argument, series_log, zero
from fraction_kernels import one, series2_from_dict


def tangent_weights(pair: FixedPointBasisVector, gamma: int) -> tuple[int, ...]:
    """Tangent weights of the Hilbert scheme at the fixed point.

    The component supported at the zero section's negative fixed point
    contributes the weight multiset of lambda0 at (-1, -1); the other
    fixed point contributes that of lambda1 at (gamma - 1, 1).
    """
    combined = weight_multiset(pair.lambda0, -1, -1) + weight_multiset(pair.lambda1, gamma - 1, 1)
    return tuple(sorted(combined))


def oracle_pair_coefficient(f: Series1, pair: FixedPointBasisVector, gamma: int):
    n = pair.level
    denominator = c_prime_product(pair.lambda0, -1, -1) * c_prime_product(
        pair.lambda1, gamma - 1, 1
    )
    if denominator == 0:
        raise ValueError(f"degenerate fixed-point denominator for {pair} at gamma={gamma}")
    truncated = f.truncate(n)
    numerator = one(n, f.ring)
    for w in tangent_weights(pair, gamma):
        numerator = numerator * scale_argument(truncated, w)
    return numerator.coefficient(n) / denominator


def oracle_hook_from_even_part(F: Series1, pair: FixedPointBasisVector):
    n = pair.level
    truncated = F.truncate(n)
    numerator = one(n, F.ring)
    for partition in (pair.lambda0, pair.lambda1):
        for cell in cells(partition):
            numerator = numerator * scale_argument(truncated, hook(partition, cell))
    sign = -1 if pair.lambda0.size % 2 else 1
    denominator = hook_product(pair.lambda0) * hook_product(pair.lambda1)
    return Fr(sign) * numerator.coefficient(n) / denominator


def oracle_hook_coefficient(f: Series1, pair: FixedPointBasisVector):
    n = pair.level
    return oracle_hook_from_even_part(f.truncate(n) * negate_argument(f.truncate(n)), pair)


def oracle_schur(partition: Partition, N: int) -> Series2:
    """s_(a,b)(x, y) = (x^(a+1) y^b - x^b y^(a+1)) / (x - y), to order N,
    from the quotient rather than from the library's Schur row."""
    a, b = (*partition.parts, 0, 0)[:2]
    numerator = series2_from_dict({(a + 1, b): Fr(1), (b, a + 1): Fr(-1)}, a + b + 1)
    return Series2(fraction_kernels.divide_by_x_minus_y(numerator).rows, N)


def oracle_z_series_hookform(f: Series1, N: int) -> Series2:
    fN = f.truncate(N)
    F = fN * negate_argument(fN)
    total = zero(Series2, N)
    for n in range(N + 1):
        for pair in level_pairs(n):
            if pair.lambda0.length <= 2 and pair.lambda1.length <= 2:
                coefficient = oracle_hook_from_even_part(F, pair)
                s0, s1 = (oracle_schur(p, N) for p in (pair.lambda0, pair.lambda1))
                schur_product = s0 * s1
                total = add(total, scale(schur_product, coefficient))
    return total


def oracle_z_series_residue(f: Series1, N: int) -> Series2:
    M = N + 2
    fM = f.truncate(M)
    F = fM * negate_argument(fM)
    G = shift_up(reciprocal(F).truncate(M - 1), 1)
    a_minus_b = series2_from_dict({(1, 0): Fr(1), (0, 1): Fr(-1)}, M)
    P = compose(G, a_minus_b) * compose(G, negate(a_minus_b))
    F_in_a = in_x(F)
    F_in_b = in_y(F)
    signed = {}
    row_product = P
    for r in range(M + 1):
        row_product = row_product * F_in_a
        cell_product = row_product
        for s in range(M + 1 - r):
            cell_product = cell_product * F_in_b
            value = cell_product.coefficient(r, s)
            if value:
                signed[(r, s)] = -value if (r + s) % 2 else value
    summed = series2_from_dict(signed, M)
    return negate(divide_by_x_minus_y(divide_by_x_minus_y(summed)))


def oracle_vector(f: Series1, gamma: int, n: int) -> tuple:
    return tuple((pair, oracle_pair_coefficient(f, pair, gamma)) for pair in level_pairs(n))


def assert_matches_oracle(f: Series1, gamma: int, n: int) -> None:
    assert equivariant_class_coeffs(f, gamma, n) == oracle_vector(f, gamma, n)


def error_or_vector(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


# ------------------------------------------------------------- tangent weights


def pair(parts0, parts1):
    return FixedPointBasisVector(Partition(parts0), Partition(parts1))


def test_tangent_weights_single_box():
    assert tangent_weights(pair((1,), ()), 3) == (-1, 1)
    assert tangent_weights(pair((), (1,)), 3) == (-1, 2)
    assert tangent_weights(pair((), (1,)), 2) == (-1, 1)


def test_tangent_weights_at_gamma_two_are_signed_hooks():
    for n in range(5):
        for fixture in level_pairs(n):
            hooks = list(hook_multiset(fixture.lambda0)) + list(
                hook_multiset(fixture.lambda1)
            )
            expected = tuple(sorted([-h for h in hooks] + hooks))
            assert tangent_weights(fixture, 2) == expected


# ------------------------------------------------------------- general twist


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_oracle_through_level_seven(name):
    f = preset_class(name, 7)
    for gamma in range(1, 6):
        for n in range(8):
            assert_matches_oracle(f, gamma, n)


def test_single_pair_entry_point_matches_oracle():
    f = preset_class("todd", 6)
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
    f = Series1((Fr(1), *tail), max(n, 1))
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
    f = Series1(coefficients, 4, DUALS)
    for gamma in (1, 2, 3):
        for n in range(5):
            vector = equivariant_class_coeffs(f, gamma, n)
            assert vector == oracle_vector(f, gamma, n)
            if n == k and (k % 2 == 0 or gamma != 2):
                assert any(value.infinitesimal for _, value in vector)
            for fixture in level_pairs(n):
                assert hook_coefficient(f, fixture) == oracle_hook_coefficient(f, fixture)


# ------------------------------------------------------------- degenerate twists


@pytest.mark.parametrize("gamma", range(-4, 7))
def test_degenerate_twists_fail_on_the_same_pair(gamma):
    f = preset_class("todd", 4)
    for n in range(5):
        expected = error_or_vector(lambda: oracle_vector(f, gamma, n))
        actual = error_or_vector(lambda: equivariant_class_coeffs(f, gamma, n))
        assert actual == expected
        for fixture in level_pairs(n):
            assert error_or_vector(lambda: pair_coefficient(f, fixture, gamma)) == (
                error_or_vector(lambda: oracle_pair_coefficient(f, fixture, gamma))
            )


def test_sweep_reaches_degenerate_twists():
    f = preset_class("todd", 4)
    failing = [
        gamma
        for gamma in range(-4, 7)
        if isinstance(error_or_vector(lambda: equivariant_class_coeffs(f, gamma, 4)), str)
    ]
    assert failing == [-2, -1, 0]


# ------------------------------------------------------------- hook form


def test_hook_form_matches_oracle_on_two_row_pairs():
    for name in PRESET_NAMES:
        f = preset_class(name, 8)
        for n in range(9):
            for fixture in level_pairs(n):
                if fixture.lambda0.length <= 2 and fixture.lambda1.length <= 2:
                    assert hook_coefficient(f, fixture) == oracle_hook_coefficient(f, fixture)
        assert z_series_hookform(f, 8) == oracle_z_series_hookform(f, 8)


@settings(max_examples=30, deadline=None)
@given(tail=st.lists(small_rationals, min_size=1, max_size=8), N=st.integers(min_value=1, max_value=6))
def test_random_classes_match_hook_form_oracle(tail, N):
    f = Series1((Fr(1), *tail), N)
    assert z_series_hookform(f, N) == oracle_z_series_hookform(f, N)


def test_a_wrong_schur_row_fails_the_oracle_and_the_triple_agreement(monkeypatch, capsys):
    # The oracle builds its Schur factors from the quotient, so a row of
    # (3, 1) with its middle 1 dropped, still symmetric, must fail the
    # comparison, and ``verify`` must report it against the fixed-point
    # sum: the closed form and the residue route read no Schur row.
    schur = localisation.schur_two_vars
    dropped = lambda p: (0, 1, 0, 1, 0) if p == Partition((3, 1)) else schur(p)
    assert schur(Partition((3, 1))) == (0, 1, 1, 1, 0)
    monkeypatch.setattr(localisation, "schur_two_vars", dropped)
    f = preset_class("todd", 8)
    assert z_series_hookform(f, 8) != oracle_z_series_hookform(f, 8)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    failed = [line.split()[1] for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert failed == ["triple-agreement"]
    assert "first difference at x^2 y^2: closed form gives 7/36, fixed-point sum gives" in captured.out
    assert captured.err == ""


# ------------------------------------------------------------- integer recurrence


def oracle_power_sum_exp(log_f: Series1, sums, n: int) -> Series1:
    """exp(sum over k of L_k s_k u^k) by the rational exponential recurrence."""
    exponent = [log_f.ring.zero] + [log_f.coefficients[k] * sums[k - 1] for k in range(1, n + 1)]
    return series_exp(Series1(tuple(exponent), n, log_f.ring))


def power_sums(values, n: int) -> list:
    """p_1, ..., p_n of a multiset of integers."""
    return [sum(v**k for v in values) for k in range(1, n + 1)]


def assert_integer_recurrence_matches(f: Series1, values, n: int) -> None:
    c, w, w_F, _ = localisation._class_log(f, n)
    fn = f.truncate(n)
    for weights, series in ((w, fn), (w_F, fn * negate_argument(fn))):
        expected = oracle_power_sum_exp(series_log(series), power_sums(values, n), n)
        e = localisation._power_sum_exp(weights, values)
        coefficients = [f.ring.join((e[m],), factorial(m) * c**m)[0] for m in range(n + 1)]
        assert coefficients == list(expected.coefficients)


class_coefficients = st.one_of(
    small_rationals,
    st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**40),
)


@settings(max_examples=60, deadline=None)
@given(
    tail=st.lists(class_coefficients, max_size=12),
    n=st.integers(min_value=0, max_value=12),
    data=st.data(),
)
def test_integer_recurrence_matches_rational_exponential(tail, n, data):
    f = Series1((Fr(1), *tail), n)
    values = data.draw(st.lists(st.integers(min_value=-60, max_value=60), max_size=2 * n))
    assert_integer_recurrence_matches(f, values, n)


def test_integer_recurrence_on_heights_and_signed_sums():
    # power sums all zero, (-7)^k, and of a multiset of both signs
    f = Series1((Fr(1), Fr(1, 10**40), Fr(-1, 10**40), Fr(10**40, 3)), 12)
    for values in ((), (0, 0), (-7,), (-5, -2, -1, 1, 3, 3, 4)):
        assert_integer_recurrence_matches(f, values, 12)


def test_integer_recurrence_over_dual_numbers():
    eps = DualNumber(Fr(0), Fr(1))
    f = Series1(
        (DualNumber(Fr(1)), Fr(1, 2) + eps, -3 * eps, DualNumber(Fr(-2, 3)), 0, eps, Fr(5, 7)), 6, DUALS
    )
    # the numerators run over the lcm of the denominators of both parts
    c, _, _, _ = localisation._class_log(f, 6)
    assert c == 42
    assert_integer_recurrence_matches(f, [3, -1, 0, 10, -4, 2], 6)
    c, w, _, _ = localisation._class_log(f, 0)
    assert DUALS.join(localisation._power_sum_exp(w, []), c) == (DUALS.one,)


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from([QQ, DUALS]), n=st.integers(min_value=0, max_value=12), data=st.data())
def test_class_log_weights_are_the_split_of_the_joined_ones(ring, n, data):
    # c^m R_m / Q is an integer, so cancelling by Q gives the numerators
    # that joining to ring elements and splitting again gives
    element = class_coefficients if ring is QQ else st.builds(DualNumber, class_coefficients, small_rationals)
    f = Series1((ring.one, *data.draw(st.lists(element, max_size=n))), n, ring)
    c, w, _, _ = localisation._class_log(f, n)
    R, Q = log_numerators(f)
    joined, _ = ring.split(ring.join([r * c**m for m, r in enumerate(R)], Q))
    # over 1, equal ring elements are equal numerators
    assert ring.join(w, 1) == ring.join(joined, 1)


def test_class_log_refuses_weights_that_are_not_integers(monkeypatch):
    # log(1 + u) has the odd weights m [u^m] = (-1)^(m+1), so a doubled
    # denominator leaves a remainder
    log = localisation.log_numerators

    def doubled(f):
        R, Q = log(f)
        return R, 2 * Q

    monkeypatch.setattr(localisation, "log_numerators", doubled)
    with pytest.raises(InternalCheckError, match="not integers"):
        localisation._class_log(Series1([1, 1], 3), 3)


# ------------------------------------------------------------- per-pair exponentials


def per_pair_value(log_series: Series1, values0, values1, n: int, denominator: int):
    """[u^n] of the product over a pair's weights, taken the direct way:
    add the two diagrams' power sums, then one rational exponential per
    pair."""
    sums = [a + b for a, b in zip(power_sums(values0, n), power_sums(values1, n))]
    return oracle_power_sum_exp(log_series, sums, n).coefficients[n] / denominator


def per_pair_coefficient(log_f: Series1, pair: FixedPointBasisVector, gamma: int):
    n = pair.level
    c0 = c_prime_product(pair.lambda0, -1, -1)
    c1 = c_prime_product(pair.lambda1, gamma - 1, 1)
    if c0 * c1 == 0:
        raise ValueError(f"degenerate fixed-point denominator for {pair} at gamma={gamma}")
    weights0 = weight_multiset(pair.lambda0, -1, -1)
    weights1 = weight_multiset(pair.lambda1, gamma - 1, 1)
    return per_pair_value(log_f, weights0, weights1, n, c0 * c1)


def per_pair_hook_coefficient(log_F: Series1, pair: FixedPointBasisVector):
    n = pair.level
    sign = -1 if pair.lambda0.size % 2 else 1
    denominator = sign * hook_product(pair.lambda0) * hook_product(pair.lambda1)
    return per_pair_value(log_F, hook_multiset(pair.lambda0), hook_multiset(pair.lambda1), n, denominator)


def assert_matches_per_pair_path(f: Series1, gamma: int, n: int) -> None:
    fn = f.truncate(n)
    log_f, log_F = series_log(fn), series_log(fn * negate_argument(fn))
    expected = tuple((p, per_pair_coefficient(log_f, p, gamma)) for p in level_pairs(n))
    assert equivariant_class_coeffs(f, gamma, n) == expected
    for fixture, value in expected:
        assert pair_coefficient(f, fixture, gamma) == value
        assert hook_coefficient(f, fixture) == per_pair_hook_coefficient(log_F, fixture)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_the_per_pair_path_through_level_seven(name):
    f = preset_class(name, 7)
    for gamma in range(1, 6):
        for n in range(8):
            assert_matches_per_pair_path(f, gamma, n)


@settings(max_examples=30, deadline=None)
@given(
    tail=st.lists(class_coefficients, min_size=1, max_size=6),
    gamma=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=0, max_value=6),
)
def test_random_classes_match_the_per_pair_path(tail, gamma, n):
    f = Series1((Fr(1), *tail), max(n, 1))
    assert_matches_per_pair_path(f, gamma, n)


def test_dual_number_class_matches_the_per_pair_path():
    eps = DualNumber(Fr(0), Fr(1))
    f = Series1(
        (DualNumber(Fr(1)), Fr(1, 2) + eps, -3 * eps, DualNumber(Fr(-2, 3)), 0, eps, Fr(5, 7)), 6, DUALS
    )
    for gamma in (1, 2, 3, 5):
        for n in range(7):
            assert_matches_per_pair_path(f, gamma, n)


def test_equivariant_vector_takes_one_exponential_per_diagram_and_fixed_point(monkeypatch):
    # one per pair would be 185 at level 8
    calls = []
    power_sum_exp = localisation._power_sum_exp

    def counting_exp(w, values):
        calls.append(values)
        return power_sum_exp(w, values)

    monkeypatch.setattr(localisation, "_power_sum_exp", counting_exp)
    equivariant_class_coeffs(preset_class("todd", 8), 3, 8)
    diagrams = sum(len(enumerate_partitions(size)) for size in range(9))
    assert len(calls) == 2 * diagrams == 134
    assert len(level_pairs(8)) == 185


def test_reduction_check_builds_each_row_once_per_level_and_fixed_point(monkeypatch):
    # levels 0..6 hold 1 + 2 + 4 + 7 + 12 + 19 + 30 = 75 diagrams, each
    # read at both fixed points; two rows per pair would be 2 * 139 = 278
    calls = []
    diagram_row = localisation._diagram_row

    def counting_row(w, partition, alpha, beta):
        calls.append((len(w) - 1, partition, alpha, beta))
        return diagram_row(w, partition, alpha, beta)

    monkeypatch.setattr(localisation, "_diagram_row", counting_row)
    assert verification._check_reduction(preset_class("todd", 6), 6) == ""
    assert len(calls) == len(set(calls)) == 150
    assert sum(len(level_pairs(n)) for n in range(7)) == 139


def test_the_row_table_follows_the_class_the_level_and_the_twist():
    eps = DualNumber(Fr(0), Fr(1))
    f = preset_class("todd", 5)
    g = Series1((Fr(1), Fr(2, 3), Fr(-4, 9), Fr(-1, 7)), 5)
    h = Series1((DUALS.one, Fr(1, 2) + eps, -3 * eps, DualNumber(Fr(-2, 3)), 0, eps), 5, DUALS)
    # the twist: the vector at gamma = 2 leaves rows at (1, 1) behind
    equivariant_class_coeffs(f, 2, 5)
    assert tuple((p, pair_coefficient(f, p, 3)) for p in level_pairs(5)) == oracle_vector(f, 3, 5)
    # the class and the level: three classes and two levels, alternated
    expected = {k: dict(oracle_vector(k, 3, 4) + oracle_vector(k, 3, 2)) for k in (f, g, h)}
    short = level_pairs(2)
    for i, p in enumerate(level_pairs(4)):
        q = short[i % len(short)]
        for k in (f, g, h):
            assert pair_coefficient(k, p, 3) == expected[k][p]
            assert pair_coefficient(k, q, 3) == expected[k][q]


def _odd_part(w):
    return [2 * w_m if m % 2 else 0 for m, w_m in enumerate(w)]


def _even_part_undoubled(w):
    return [0 if m % 2 else w_m for m, w_m in enumerate(w)]


def replace_log_of_F(monkeypatch, mutant) -> None:
    """Make ``_class_log`` give ``mutant(w)`` as the weights of F."""
    class_log = localisation._class_log

    def perturbed(f, n):
        c, w, _, rows = class_log(f, n)
        return c, w, mutant(w), rows

    monkeypatch.setattr(localisation, "_class_log", perturbed)


@pytest.mark.parametrize("mutant", [_odd_part, _even_part_undoubled])
def test_hook_oracles_reject_a_wrong_log_of_F(monkeypatch, mutant):
    # log F is twice the even part of log f; the odd part, or the even
    # part without the factor 2, must fail both hook-form oracles
    f = preset_class("todd", 6)
    replace_log_of_F(monkeypatch, mutant)
    assert z_series_hookform(f, 6) != oracle_z_series_hookform(f, 6)
    assert any(hook_coefficient(f, p) != oracle_hook_coefficient(f, p) for p in level_pairs(4))


# ------------------------------------------------------------- residue route


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_residue_oracle_through_twelve(name):
    f = preset_class(name, 14)
    for N in range(1, 13):
        assert z_series_residue(f, N) == oracle_z_series_residue(f, N)


@settings(max_examples=30, deadline=None)
@given(tail=st.lists(small_rationals, min_size=1, max_size=10), N=st.integers(min_value=1, max_value=6))
def test_random_classes_match_residue_oracle(tail, N):
    f = Series1((Fr(1), *tail), N + 2)
    expected = oracle_z_series_residue(f, N)
    assert z_series_residue(f, N) == expected
    assert expected == oracle_z_series_hookform(f, N)


@pytest.mark.parametrize("N", range(1, 7))
def test_all_three_routes_agree_over_dual_numbers(N):
    eps = DualNumber(Fr(0), Fr(1))
    f = add(one(N + 2, DUALS), monomial(eps, 2, N + 2, DUALS))
    Z = z_series_residue(f, N)
    assert Z.ring is DUALS
    assert Z == z_closed(f, N) == z_series_hookform(f, N)


# ------------------------------------------------------------- operation counts


def test_residue_route_makes_linearly_many_two_variable_products(monkeypatch):
    calls = []
    multiply = Series2.__mul__

    def counting_multiply(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Series2, "__mul__", counting_multiply)
    f = preset_class("todd", 14)
    counts = {}
    for N in (4, 12):
        calls.clear()
        z_series_residue(f, N)
        counts[N] = len(calls)
    # M = N + 2 is 6 and 14; per-cell products would grow quadratically.
    # Horner's scheme on numerators forms no Series2 product at all.
    assert counts[12] * 6 <= counts[4] * 14
    assert counts == {4: 0, 12: 0}


def test_hook_form_takes_one_exponential_per_two_row_partition(monkeypatch):
    calls = []
    power_sum_exp = localisation._power_sum_exp

    def counting_exp(w, values):
        calls.append(values)
        return power_sum_exp(w, values)

    N = 8
    monkeypatch.setattr(localisation, "_power_sum_exp", counting_exp)
    z_series_hookform(preset_class("todd", N), N)
    two_row = [p for size in range(N + 1) for p in enumerate_partitions(size) if p.length <= 2]
    assert len(calls) == len(two_row)


def test_reduction_check_takes_one_log_per_level(monkeypatch):
    # 139 pairs up to level 6 and two single-pair calls per pair: taking
    # the log per call would take it 278 times
    calls = []
    log = localisation.log_numerators

    def counting_log(f):
        calls.append(f.order)
        return log(f)

    monkeypatch.setattr(localisation, "log_numerators", counting_log)
    assert verification._check_reduction(preset_class("todd", 6), 6) == ""
    assert len(calls) <= 7


def test_reduction_check_finds_each_diagrams_cells_once():
    # weight_multiset, c_prime_product, hook_multiset and hook_product
    # read every diagram at every level; its arms and legs are found once
    partitions._arms_and_legs.cache_clear()
    assert verification._check_reduction(preset_class("todd", 6), 6) == ""
    diagrams = sum(len(enumerate_partitions(size)) for size in range(7))
    info = partitions._arms_and_legs.cache_info()
    assert (info.misses, info.currsize) == (diagrams, diagrams)
    assert info.hits > 10 * diagrams


def _rows_without_factorials(diagram_row):
    """``_diagram_row`` with its row over c^i instead of i! c^i, so the
    pair convolution weighs each term by n! instead of C(n, i)."""

    def perturbed(w, partition, alpha, beta):
        e, d = diagram_row(w, partition, alpha, beta)
        return [e_i * factorial(i) for i, e_i in enumerate(e)], d

    return perturbed


def test_reduction_check_fails_on_a_wrong_pair_convolution(monkeypatch):
    # the hook form takes one exponential per pair, so it reads none of
    # the diagram rows that pair_coefficient convolves, and a fault there fails
    f = preset_class("todd", 10)
    monkeypatch.setattr(localisation, "_diagram_row", _rows_without_factorials(localisation._diagram_row))
    failed = [r.name for r in verification.verify_multiplicative(f, "todd", 8) if not r.passed]
    assert failed == ["fixed-point-reduction"]


def test_reduction_check_names_the_first_differing_pair(monkeypatch):
    f = preset_class("todd", 6)
    assert verification._check_reduction(f, 4) == ""
    skewed_pair = level_pairs(3)[1]

    def skewed(f, pair):
        value = hook_coefficient(f, pair)
        return value + 1 if pair == skewed_pair else value

    monkeypatch.setattr(verification, "hook_coefficient", skewed)
    message = verification._check_reduction(f, 4)
    assert message.startswith(f"pair {skewed_pair}: general twist-2 coefficient")


def test_verify_builds_the_closed_form_and_tangent_tables_once(monkeypatch):
    f = preset_class("todd", 8)
    calls = []

    def counting(name, original):
        def wrapper(g, N):
            calls.append((name, g is f))
            return original(g, N)

        return wrapper

    for name in ("z_closed", "tangent_tables"):
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    results = verification.verify_multiplicative(f, "todd", 6)
    assert [result.name for result in results] == [
        "triple-agreement",
        "log-exp-consistency",
        "parity",
        "symmetry",
        "fixed-point-reduction",
        "triviality-baseline",
        "dual-number-oracle",
    ]
    assert all(result.passed for result in results)
    assert calls.count(("z_closed", True)) == 1
    assert calls.count(("tangent_tables", True)) == 1


def test_a_fault_in_the_shared_congruence_fails_the_triple_agreement(monkeypatch):
    # The closed form and the residue route both run the congruence
    # kernel series.congruence_numerators (the closed form through
    # series.compose_difference_numerators); the fixed-point sum and the
    # tables run neither, so a fault in that kernel is reported against
    # the fixed-point sum and against the tables.
    congruence = series.congruence_numerators
    calls = []

    def perturbing(route):
        def perturbed(C, T):
            # one numerator too high: on a table of powers of g, the top
            # coefficient of g, so the result stays divisible by x - y
            n = len(C) - 1
            rows = [list(row) for row in T]
            rows[1][n - 1] = rows[1][n - 1] + 1
            calls.append(route)
            return congruence(C, rows)

        return perturbed

    f = preset_class("todd", 10)
    for module, route in ((series, "closed form"), (localisation, "residue")):
        monkeypatch.setattr(module, "congruence_numerators", perturbing(route))
    z_series_hookform(f, 8)
    assert calls == []
    results = verification.verify_multiplicative(f, "todd", 8)
    # The fault reaches both routes.  In the residue route the entry meets
    # only the linear terms of (G G)(a - b), which vanish, so there it
    # leaves Z unchanged; the closed form carries it to the checks that
    # read Z, the trivial class's Z included.
    assert set(calls) == {"closed form", "residue"}
    assert {result.name: result.detail for result in results if not result.passed} == {
        "triple-agreement": "first difference at x^0 y^8: closed form gives 18191/1209600, "
        "fixed-point sum gives 2021/134400",
        "log-exp-consistency": "first difference at x^0 y^8: E(Z) gives 18191/151200, "
        "Z E(double sum of a_kl) gives 2021/16800",
        "triviality-baseline": "Z for the trivial class is not identically 1",
    }


def test_a_residue_route_that_raises_fails_the_triple_agreement(monkeypatch, capsys):
    # One numerator too high at T[2][n - 3] leaves the residue route's
    # product not divisible by (x - y), so the route raises SeriesError;
    # verify reports that as a failed check, with no traceback.
    congruence = localisation.congruence_numerators

    def perturbed(C, T):
        n = len(C) - 1
        rows = [list(row) for row in T]
        rows[2][n - 3] = rows[2][n - 3] + 1
        return congruence(C, rows)

    monkeypatch.setattr(localisation, "congruence_numerators", perturbed)
    with pytest.raises(series.SeriesError):
        z_series_residue(preset_class("todd", 10), 8)
    assert cli.main(["verify", "--class", "todd", "--order", "8"]) == 1
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == ["triple-agreement"]
    assert "the residue extraction raised SeriesError: not divisible by (x - y)" in captured.out
    assert captured.err == ""
