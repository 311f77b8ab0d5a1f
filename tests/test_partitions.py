import math
from fractions import Fraction as Fr

import pytest

from cell_oracle import EMPTY, arm, cells, hook, leg
from hilbfock.partitions import (
    Partition,
    c_prime_product,
    enumerate_partitions,
    hook_multiset,
    hook_product,
    weight_multiset,
)


def c_product(partition, alpha, beta):
    """c(lambda; alpha, beta): the product over cells w of alpha*(l(w)+1) + beta*a(w)."""
    product = Fr(1)
    for w in cells(partition):
        product *= alpha * (leg(partition, w) + 1) + beta * arm(partition, w)
    return product


def conjugate(partition):
    """Transpose the diagram."""
    if not partition.parts:
        return Partition()
    cols = [0] * partition.parts[0]
    for row_length in partition.parts:
        for j in range(row_length):
            cols[j] += 1
    return Partition(cols)


def test_construction_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()).size == 0
    assert EMPTY == Partition()


def test_construction_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize("parts", [(2.7, 1), ("3",), (Fr(5, 2),)])
def test_construction_rejects_non_integer_parts(parts):
    # int() would cut these to (2, 1), (3,) and (2,)
    with pytest.raises(TypeError):
        Partition(parts)


def test_construction_accepts_integer_like_parts():
    assert Partition((2, 1)).parts == (2, 1)
    assert Partition((True,)).parts == (1,)


def test_size_length_str_iteration():
    p = Partition((2, 1))
    assert p.size == 3
    assert p.length == 2
    assert str(p) == "(2,1)"
    assert str(EMPTY) == "()"


def test_conjugate():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition((2, 2))) == Partition((2, 2))
    assert conjugate(EMPTY) == EMPTY


def test_cells_are_one_based_row_column():
    assert list(cells(Partition((2, 1)))) == [(1, 1), (1, 2), (2, 1)]


# ------------------------------------------------------------- enumeration


def _partition_count_oracle(n):
    """Euler's pentagonal-number recurrence, independent of the enumerator."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def test_enumerate_base_cases():
    assert enumerate_partitions(0) == (EMPTY,)
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_counts_match_pentagonal_recurrence():
    for n in range(18):
        assert len(enumerate_partitions(n)) == _partition_count_oracle(n)


def test_enumeration_order_is_reverse_lexicographic():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_has_no_duplicates():
    for n in range(12):
        listed = enumerate_partitions(n)
        assert len(set(listed)) == len(listed)
        assert all(p.size == n for p in listed)


# ----------------------------------------------------- arm, leg and hooks


def test_arm_leg_hook_for_two_one():
    p = Partition((2, 1))
    assert (arm(p, (1, 1)), leg(p, (1, 1)), hook(p, (1, 1))) == (1, 1, 3)
    assert (arm(p, (1, 2)), leg(p, (1, 2)), hook(p, (1, 2))) == (0, 0, 1)
    assert hook(p, (2, 1)) == 1


def test_cell_outside_diagram_is_an_error():
    with pytest.raises(ValueError, match="outside the diagram"):
        hook(Partition((2, 1)), (2, 2))
    with pytest.raises(ValueError, match="outside the diagram"):
        arm(Partition((1,)), (0, 1))


def test_hook_multisets_and_products():
    assert hook_multiset(Partition((2, 1))) == (1, 1, 3)
    assert hook_product(EMPTY) == 1
    assert hook_product(Partition((2, 1))) == 3
    assert hook_product(Partition((3, 1))) == 8


def test_two_row_hook_product_closed_form():
    # (a+1)! b! / (a - b + 1) for a two-row partition (a, b)
    for a in range(17):
        for b in range(min(a, 16 - a) + 1):
            p = Partition((a, b)) if b else (Partition((a,)) if a else EMPTY)
            expected = math.factorial(a + 1) * math.factorial(b) // (a - b + 1)
            assert hook_product(p) == expected


def test_two_row_hook_multiset_structure():
    # hooks of (a, b) are {1..b} plus {1..a+1} with a-b+1 removed
    for a in range(1, 9):
        for b in range(1, a + 1):
            expected = sorted(
                list(range(1, b + 1))
                + [h for h in range(1, a + 2) if h != a - b + 1]
            )
            assert list(hook_multiset(Partition((a, b)))) == expected


def test_hook_multiset_is_conjugation_invariant():
    for n in range(9):
        for p in enumerate_partitions(n):
            assert hook_multiset(p) == hook_multiset(conjugate(p))


# ----------------------------------------------------- cell polynomials


def test_single_cell_products():
    p = Partition((1,))
    alpha, beta = Fr(2), Fr(3)
    assert c_product(p, alpha, beta) == alpha
    assert c_prime_product(p, alpha, beta) == beta


def test_c_products_at_one_one_give_hook_product():
    for n in range(9):
        for p in enumerate_partitions(n):
            h = hook_product(p)
            assert c_product(p, Fr(1), Fr(1)) == h
            assert c_prime_product(p, Fr(1), Fr(1)) == h


def test_c_prime_at_minus_one_gives_signed_hook_product():
    for n in range(9):
        for p in enumerate_partitions(n):
            expected = (-1) ** p.size * hook_product(p)
            assert c_prime_product(p, Fr(-1), Fr(-1)) == expected


# ----------------------------------------------------- weight multisets


def test_single_cell_weights():
    assert weight_multiset(Partition((1,)), Fr(2), Fr(3)) == (-3, 2)


def test_weights_at_minus_one_are_signed_hooks():
    for n in range(9):
        for p in enumerate_partitions(n):
            hooks = hook_multiset(p)
            expected = tuple(sorted([-h for h in hooks] + list(hooks)))
            assert weight_multiset(p, Fr(-1), Fr(-1)) == expected


def test_weights_at_one_one_match_minus_one_minus_one():
    for n in range(9):
        for p in enumerate_partitions(n):
            assert weight_multiset(p, Fr(1), Fr(1)) == weight_multiset(p, Fr(-1), Fr(-1))


def test_weight_multiset_cardinality_and_product():
    # the product of all weights is (-1)^size * c * c'
    for n in range(7):
        for p in enumerate_partitions(n):
            for alpha, beta in ((Fr(2), Fr(3)), (Fr(1), Fr(-2)), (Fr(5), Fr(1))):
                weights = weight_multiset(p, alpha, beta)
                assert len(weights) == 2 * p.size
                product = Fr(1)
                for w in weights:
                    product *= w
                expected = (
                    (-1) ** p.size
                    * c_product(p, alpha, beta)
                    * c_prime_product(p, alpha, beta)
                )
                assert product == expected


# ------------------------------------- row-length statistics against cells


def test_row_length_statistics_match_the_per_cell_definitions():
    # the package reads arms and legs off the row lengths and their
    # conjugate; the oracle walks the cells with arm and leg
    for n in range(11):
        for p in enumerate_partitions(n):
            stats = [(arm(p, w), leg(p, w)) for w in cells(p)]
            assert hook_multiset(p) == tuple(sorted(a + l + 1 for a, l in stats))
            assert hook_product(p) == math.prod(a + l + 1 for a, l in stats)
            for alpha in range(-3, 4):
                for beta in range(-3, 4):
                    weights = [alpha * (l + 1) + beta * a for a, l in stats]
                    weights += [-alpha * l - beta * (a + 1) for a, l in stats]
                    assert weight_multiset(p, alpha, beta) == tuple(sorted(weights))
                    expected = math.prod(alpha * l + beta * (a + 1) for a, l in stats)
                    assert c_prime_product(p, alpha, beta) == expected
