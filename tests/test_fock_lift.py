"""The twist-2 fixed-point vector over all partitions, lifted to the ring
of symmetric functions.

The two-variable Z kills every Schur polynomial with three or more rows,
so the entries of the gamma = 2 vector whose pair holds such a partition
reach ``verify`` only through ``fixed-point-reduction``, which compares
them with ``hook_coefficient`` over the same ``level_pairs``.  In the
Fock space the creation operators act as the power sums p_k, and there
the whole vector is tied to the tables: with v(lambda0, lambda1) the
entry that ``equivariant --gamma 2`` prints and

    Z_n = sum over the pairs of level n of v(lambda0, lambda1) s_lambda0 s_lambda1,

log of the sum of the Z_n is the sum over k, l >= 1 of a_(k,l) p_k p_l,
over ordered pairs, with the a_(k,l) of ``tangent_tables``.  Two
variables specialise it to the identity that ``log-exp-consistency``
checks.  It is checked here with no log taken: with
Q_d = sum over k + l = d of a_(k,l) p_k p_l,

    n Z_n = sum over 2 <= d <= n of d Q_d Z_(n - d).

Schur functions come in the p-basis as s_lambda = sum over mu of
chi^lambda(mu) p_mu / z_mu, with the characters by the
Murnaghan-Nakayama rule on beta-sets (Macdonald, Symmetric Functions
and Hall Polynomials, I.7).  A level holds p(n) identities against many
more entries (11 against 65 at level 6), and s_lambda s_mu =
s_mu s_lambda, so it reads only v(lambda, mu) + v(mu, lambda): a swap
of the two passes, and so does moving one onto the other, which
``fixed-point-reduction`` sees.

The tautological half has no vector in ``src/``, so its entries are
built here, by a direct product over the cells: with c = column - row,
both from 0, and h the hook product,

    v_taut(lambda0, lambda1) = [u^n] prod over lambda0 of f(c u) prod over lambda1 of f(-c u)
                               / ((-1)^|lambda0| h(lambda0) h(lambda1)),

and the same recurrence, with Q_d read off ``taut_tables`` and odd d
included, ties them to the tautological table: the one witness of that
table that shares no code with it.

Its two-variable shadow reaches higher degree: the pairs of partitions
with at most two rows, weighted by s_lambda0(x, y) s_lambda1(x, y) from
``schur_two_vars``, sum to Z_taut, and ``_check_log_exp``, the body of
``verify``'s log-exp-consistency line, checks log Z_taut against the
tautological table.  The first two columns of
Z_taut give the single-index table: with

    a_taut(k, 1) = [x^k] (d/dy Z_taut(x, 0) / Z_taut(x, 0)) / 2,
    1/g = 1/x + f_1 - sum over k >= 1 of a_taut(k, 1) x^k,

a_taut(k) = [x^k] g / k.
"""

from fractions import Fraction as Fr
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import localisation, verification
from hilbfock.closedform import CoeffTable, chern_character_class, preset_class, tangent_tables, taut_tables
from hilbfock.localisation import FixedPointBasisVector, equivariant_class_coeffs, level_pairs
from hilbfock.partitions import Partition, enumerate_partitions, hook_product
from hilbfock.rings import DUALS, QQ, DualNumber
from hilbfock.series import Series1, Series2, reciprocal
from hilbfock.symfun import schur_two_vars

TOP = 6

# the tables at degree TOP read the class one degree beyond it
CLASSES = {
    "todd": preset_class("todd", TOP + 1),
    "a-hat": preset_class("a-hat", TOP + 1),
    "2/3,-4/9,-1/7": Series1((Fr(1), Fr(2, 3), Fr(-4, 9), Fr(-1, 7)), TOP + 1),
    "chern-character": chern_character_class(TOP),
}

# the tautological tables at degree TOP read the class one degree beyond it
TAUT_CLASSES = {
    name: (preset_class(name, TOP + 1), TOP) for name in ("todd", "a-hat", "l-genus", "chern-total")
}
TAUT_CLASSES["2/3,-4/9,-1/7"] = (CLASSES["2/3,-4/9,-1/7"], TOP)
TAUT_CLASSES["2/3,-4/9,-1/7 at 7"] = (Series1(CLASSES["2/3,-4/9,-1/7"].coefficients, TOP + 2), TOP + 1)

THREE_ROWS = Partition((2, 1, 1))

# the level-8 lift and the two-row shadow to degree 12, read to degree 13
DEEP = 12
DEEP_CLASSES = {
    "todd": preset_class("todd", DEEP + 1),
    "a-hat": preset_class("a-hat", DEEP + 1),
    "2/3,-4/9,-1/7": Series1(CLASSES["2/3,-4/9,-1/7"].coefficients, DEEP + 1),
}


def beta_set(parts: tuple) -> frozenset:
    return frozenset(p + len(parts) - 1 - i for i, p in enumerate(parts))


@cache
def character(beta: frozenset, mu: tuple) -> int:
    """chi^lambda(mu), with lambda given by a beta-set: removing a rim
    hook of length r moves a bead b to the free place b - r, with the
    sign (-1) to the number of beads it passes."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            passed = sum(b - r < x < b for x in beta)
            total += (-1) ** passed * character(beta - {b} | {b - r}, rest)
    return total


def z(mu: tuple) -> int:
    """The order of the centraliser of a permutation of cycle type mu."""
    order = 1
    for part in set(mu):
        count = mu.count(part)
        order *= part**count * factorial(count)
    return order


@cache
def schur(partition: Partition) -> dict:
    """s_lambda in the power-sum basis, keyed by mu in decreasing order."""
    beta = beta_set(partition.parts)
    return {
        mu.parts: Fr(character(beta, mu.parts), z(mu.parts))
        for mu in enumerate_partitions(partition.size)
        if character(beta, mu.parts)
    }


def multiply(a: dict, b: dict) -> dict:
    product = {}
    for mu, x in a.items():
        for nu, y in b.items():
            key = tuple(sorted(mu + nu, reverse=True))
            product[key] = product.get(key, 0) + x * y
    return product


def add_into(total: dict, terms: dict, weight) -> None:
    for mu, x in terms.items():
        total[mu] = total.get(mu, 0) + x * weight


def lifted_level(entries) -> dict:
    """Z_n: the sum of v s_lambda0 s_lambda1 over the (pair, v) of one level."""
    level = {}
    for pair, v in entries:
        add_into(level, multiply(schur(pair.lambda0), schur(pair.lambda1)), v)
    return level


def lift_mismatches(Z: list, table) -> list:
    """(n, mu) for each p_mu at which n Z_n and the sum over d of
    d Q_d Z_(n - d) differ, for n below len(Z), with Q_d read off the
    pair table."""
    mismatches = []
    for n in range(1, len(Z)):
        right = {}
        for d in range(2, n + 1):
            Q = {}
            for k in range(1, d):
                key = (max(k, d - k), min(k, d - k))
                Q[key] = Q.get(key, 0) + d * table.value(k, d - k)
            add_into(right, multiply(Q, Z[n - d]), 1)
        for mu in sorted(Z[n].keys() | right.keys()):
            if Z[n].get(mu, 0) * n != right.get(mu, 0):
                mismatches.append((n, mu))
    return mismatches


def fock_lift_mismatches(f: Series1, top: int) -> list:
    """The tangent lift's mismatches on the printed gamma = 2 vector, for n <= top."""
    Z = [lifted_level(equivariant_class_coeffs(f, 2, n)) for n in range(top + 1)]
    return lift_mismatches(Z, tangent_tables(f, top)[1])


def taut_entry(f: Series1, pair: FixedPointBasisVector, signs: tuple) -> Fr | DualNumber:
    """[u^n] of the product of f(s c u) over the cells of both diagrams,
    with c = column - row and s = signs[0] on lambda0 and signs[1] on
    lambda1, over (-1)^|lambda0| h(lambda0) h(lambda1), by one truncated
    product per cell over the ring of f.  Signs (1, -1) give
    v_taut(lambda0, lambda1); any other signs build a mutant."""
    n, ring = pair.level, f.ring
    product = [ring.one] + [ring.zero] * n
    for partition, sign in zip((pair.lambda0, pair.lambda1), signs):
        for row, length in enumerate(partition.parts):
            for column in range(length):
                c = sign * (column - row)
                factor = [f.coefficient(k) * c**k for k in range(n + 1)]
                product = [
                    sum((product[i] * factor[m - i] for i in range(m + 1)), ring.zero) for m in range(n + 1)
                ]
    denominator = (-1) ** pair.lambda0.size * hook_product(pair.lambda0) * hook_product(pair.lambda1)
    return product[n] / denominator


def taut_lift_mismatches(f: Series1, top: int, signs: tuple = (1, -1), table=None) -> list:
    """The tautological lift's mismatches against ``taut_tables``, or
    against ``table`` when one is given, for n <= top."""
    Z = [lifted_level((pair, taut_entry(f, pair, signs)) for pair in level_pairs(n)) for n in range(top + 1)]
    return lift_mismatches(Z, taut_tables(f, top)[1] if table is None else table)


def two_row_cell_products(f: Series1, N: int, sign: int) -> dict:
    """The product of f(sign c u) over the cells, to u^N, for each
    partition with at most two rows and at most N cells, over the ring
    of f.  Each is the product of a smaller one by the factor of its last
    cell: (a, b) with b > 0 ends in the cell of content b - 2, (a) in that
    of content a - 1."""
    ring = f.ring
    products = {Partition(()): [ring.one] + [ring.zero] * N}
    for n in range(1, N + 1):
        for b in range(n // 2 + 1):
            a = n - b
            smaller, c = (Partition((a, b - 1)), b - 2) if b else (Partition((a - 1,)), a - 1)
            factor = [f.coefficient(k) * (sign * c) ** k for k in range(N + 1)]
            head = products[smaller]
            products[Partition((a, b))] = [
                sum((head[i] * factor[m - i] for i in range(m + 1)), ring.zero) for m in range(N + 1)
            ]
    return products


def z_taut(f: Series1, N: int, signs: tuple = (1, -1)) -> Series2:
    """Z_taut to total degree N: v_taut(lambda0, lambda1) s_lambda0(x, y)
    s_lambda1(x, y) summed over the pairs with at most two rows, with
    v_taut built from one cell product per diagram and sign as in
    ``taut_entry``.  Signs other than (1, -1) build a mutant."""
    ring = f.ring
    products = [two_row_cell_products(f, N, sign) for sign in signs]
    rows = [[ring.zero] * (n + 1) for n in range(N + 1)]
    for lambda0, p0 in products[0].items():
        for lambda1, p1 in products[1].items():
            n = lambda0.size + lambda1.size
            if n > N:
                continue
            u_n = sum((p0[i] * p1[n - i] for i in range(n + 1)), ring.zero)
            v = u_n / ((-1) ** lambda0.size * hook_product(lambda0) * hook_product(lambda1))
            for i, x in enumerate(schur_two_vars(lambda0)):
                for j, y in enumerate(schur_two_vars(lambda1)):
                    if x * y:
                        rows[n][i + j] += v * x * y
    return Series2(tuple(map(tuple, rows)), N, ring)


def first_columns(f: Series1, N: int) -> tuple[dict, dict]:
    """a_taut(k, 1) for k < N and a_taut(k) for k <= N, from the first two
    columns of Z_taut to total degree N + 1."""
    Z = z_taut(f, N + 1)
    z0, z1 = (Series1([Z.coefficient(k, column) for k in range(N + 1)], N) for column in (0, 1))
    quotient = z1 * reciprocal(z0)
    a_k1 = {k: quotient.coefficient(k) / 2 for k in range(1, N)}
    x_over_g = Series1([Fr(1), f.coefficient(1)] + [-a_k1[k] for k in range(1, N)], N)
    g_over_x = reciprocal(x_over_g)
    return a_k1, {k: g_over_x.coefficient(k - 1) / k for k in range(1, N + 1)}


def test_characters_give_the_hook_length_formula_and_column_orthogonality():
    for n in range(TOP + 1):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            assert character(beta_set(lam.parts), (1,) * n) == factorial(n) // hook_product(lam)
        for mu in shapes:
            for nu in shapes:
                inner = sum(
                    character(beta_set(lam.parts), mu.parts) * character(beta_set(lam.parts), nu.parts)
                    for lam in shapes
                )
                assert inner == (z(mu.parts) if mu == nu else 0)


@pytest.mark.parametrize("name", CLASSES)
def test_every_pair_of_the_vector_is_tied_to_the_tables(name):
    f = CLASSES[name]
    assert fock_lift_mismatches(f, TOP) == []
    # three-row pairs carry weight, so the identity reads them
    vector = dict(equivariant_class_coeffs(f, 2, 4))
    assert vector[FixedPointBasisVector(THREE_ROWS, Partition())] != 0


def test_a_skipped_three_row_partition_fails_the_lift(monkeypatch):
    # verify passes this fault: Z has no three-row pair, and the
    # pair-by-pair check runs over the same level_pairs
    enumerate_all = localisation.enumerate_partitions
    monkeypatch.setattr(
        localisation,
        "enumerate_partitions",
        lambda n: tuple(p for p in enumerate_all(n) if p != THREE_ROWS),
    )
    f = CLASSES["todd"]
    assert verification._check_reduction(f, TOP) == ""
    assert fock_lift_mismatches(f, TOP) != []


def test_a_doubled_three_row_entry_fails_the_lift(monkeypatch):
    pair_coefficient = localisation.pair_coefficient
    doubled = FixedPointBasisVector(THREE_ROWS, Partition())

    def perturbed(f, pair, gamma):
        value = pair_coefficient(f, pair, gamma)
        return value * 2 if pair == doubled else value

    monkeypatch.setattr(localisation, "pair_coefficient", perturbed)
    assert fock_lift_mismatches(CLASSES["todd"], TOP) != []


def test_a_swap_of_the_two_diagrams_passes_the_lift(monkeypatch):
    # s_lambda0 s_lambda1 = s_lambda1 s_lambda0, so the lift cannot see
    # which diagram sits at which fixed point.  At gamma = 2 the swap
    # changes no entry either: F(u) = f(u) f(-u) is even, so the odd
    # levels vanish, and at an even level v(lambda, mu) = v(mu, lambda)
    f = CLASSES["todd"]
    vector = [equivariant_class_coeffs(f, 2, n) for n in range(TOP + 1)]
    pair_coefficient = localisation.pair_coefficient

    def swapped(f, pair, gamma):
        return pair_coefficient(f, FixedPointBasisVector(pair.lambda1, pair.lambda0), gamma)

    monkeypatch.setattr(localisation, "pair_coefficient", swapped)
    assert fock_lift_mismatches(f, TOP) == []
    assert [equivariant_class_coeffs(f, 2, n) for n in range(TOP + 1)] == vector


def test_an_entry_moved_onto_its_mirror_pair_passes_the_lift_and_fails_the_reduction(monkeypatch):
    # the lift reads v(lambda, mu) + v(mu, lambda) only, so moving one
    # entry onto its mirror passes; the pair-by-pair check sees it
    pair_coefficient = localisation.pair_coefficient
    kept = FixedPointBasisVector(THREE_ROWS, Partition())
    emptied = FixedPointBasisVector(Partition(), THREE_ROWS)

    def moved(f, pair, gamma):
        value = pair_coefficient(f, pair, gamma)
        return value * 2 if pair == kept else 0 if pair == emptied else value

    monkeypatch.setattr(localisation, "pair_coefficient", moved)
    f = CLASSES["todd"]
    assert fock_lift_mismatches(f, TOP) == []
    assert verification._check_reduction(f, TOP).startswith("pair [(2,1,1), ()]")


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def random_class(data, ring, N: int) -> Series1:
    """A class over ``ring`` with 1 to N + 1 random coefficients after the
    constant 1, read to degree N + 1 as the tables at degree N ask."""
    element = small_rationals if ring is QQ else st.builds(DualNumber, small_rationals, small_rationals)
    tail = data.draw(st.lists(element, min_size=1, max_size=N + 1))
    return Series1((ring.one, *tail), N + 1, ring)


@settings(max_examples=20, deadline=None)
@given(ring=st.sampled_from([QQ, DUALS]), N=st.integers(min_value=1, max_value=5), data=st.data())
def test_the_tangent_lift_holds_for_random_classes_over_both_rings(ring, N, data):
    assert fock_lift_mismatches(random_class(data, ring, N), N) == []


@settings(max_examples=20, deadline=None)
@given(ring=st.sampled_from([QQ, DUALS]), N=st.integers(min_value=1, max_value=5), data=st.data())
def test_the_tautological_lift_holds_for_random_classes_over_both_rings(ring, N, data):
    assert taut_lift_mismatches(random_class(data, ring, N), N) == []


@settings(max_examples=20, deadline=None)
@given(ring=st.sampled_from([QQ, DUALS]), N=st.integers(min_value=1, max_value=8), data=st.data())
def test_the_two_row_tautological_sum_holds_for_random_classes_over_both_rings(ring, N, data):
    f = random_class(data, ring, N)
    assert verification._check_log_exp(z_taut(f, N), taut_tables(f, N)[1]) == ""


@pytest.mark.parametrize("name", TAUT_CLASSES)
def test_the_tautological_entries_are_tied_to_the_tautological_table(name):
    f, top = TAUT_CLASSES[name]
    assert taut_lift_mismatches(f, top) == []


def test_tautological_contents_with_the_wrong_signs_fail_the_lift():
    # f(c u) and f(-c u) agree for an even class, so a-hat and l-genus
    # cannot see the signs of the contents.  Negating every content
    # builds the entries of f(-x), whose table is that of f for a-hat,
    # l-genus and chern-total (zero): that mutant passes all three, and
    # todd shows it
    todd = TAUT_CLASSES["todd"][0]
    assert len(taut_lift_mismatches(todd, TOP, signs=(1, 1))) == 5
    assert len(taut_lift_mismatches(todd, TOP, signs=(-1, 1))) == 5
    assert taut_lift_mismatches(TAUT_CLASSES["chern-total"][0], TOP, signs=(-1, 1)) == []


def test_a_bumped_odd_degree_tautological_entry_fails_the_lift():
    todd = TAUT_CLASSES["todd"][0]
    table = taut_tables(todd, TOP)[1]
    bumped = CoeffTable(table.kind, table.max_degree, {**table.entries, (3, 2): table.entries[3, 2] + 1})
    assert taut_lift_mismatches(todd, TOP, table=bumped) == [(5, (3, 2))]


@pytest.mark.parametrize("name", DEEP_CLASSES)
def test_every_pair_of_the_vector_is_tied_to_the_tables_at_level_8(name):
    # levels 7 and 8 add three-row partitions, such as (2, 2, 2, 1), that Z cannot see
    assert fock_lift_mismatches(DEEP_CLASSES[name], 8) == []


@pytest.mark.parametrize("name", DEEP_CLASSES)
def test_the_two_row_tautological_sum_is_tied_to_the_tautological_table(name):
    f = DEEP_CLASSES[name]
    assert verification._check_log_exp(z_taut(f, DEEP), taut_tables(f, DEEP)[1]) == ""


@pytest.mark.parametrize("name", DEEP_CLASSES)
def test_the_first_columns_of_the_two_row_sum_give_the_single_index_table(name):
    f, N = DEEP_CLASSES[name], 10
    a_k, table = taut_tables(f, N)
    a_k1, a_k_from_columns = first_columns(f, N)
    assert a_k1 == {k: table.value(k, 1) for k in range(1, N)}
    assert a_k_from_columns == a_k


@pytest.mark.parametrize(
    "signs, bump, first",
    [((1, -1), {(3, 2): 1}, "x^0 y^5"), ((1, -1), {(7, 3): Fr(1, 10**6)}, "x^0 y^10"), ((-1, 1), {}, "x^0 y^3")],
    ids=["a_taut(3,2)+1", "a_taut(7,3)+1e-6", "every-content-negated"],
)
def test_a_mutant_fails_the_two_row_tautological_sum(signs, bump, first):
    todd, N = DEEP_CLASSES["todd"], 10
    table = taut_tables(todd, N)[1]
    bumped = CoeffTable(table.kind, N, {key: value + bump.get(key, 0) for key, value in table.entries.items()})
    assert verification._check_log_exp(z_taut(todd, N, signs), bumped).startswith(f"first difference at {first}:")
