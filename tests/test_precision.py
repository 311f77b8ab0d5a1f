"""The precision contract at its boundary.

Each entry point documents how far the class series must be known for
a requested order.  One order short it raises InsufficientOrderError;
at exactly that order it succeeds, with the same result as from a
longer series.
"""

import pytest

from hilbfock.closedform import (
    a_k_table,
    a_kl_table,
    chern_character_tables,
    preset_class,
    small_g,
    tangent_tables,
    taut_tables,
    z_closed,
)
from hilbfock.localisation import (
    FixedPointBasisVector,
    equivariant_class_coeffs,
    hook_coefficient,
    pair_coefficient,
    z_series_hookform,
    z_series_residue,
)
from hilbfock.partitions import Partition
from hilbfock.series import InsufficientOrderError, SeriesError
from hilbfock.verification import verify_multiplicative

N = 5
PAIR = FixedPointBasisVector(Partition((2, 1)), Partition((2,)))

# (entry point, the call at order N, the class series order it needs)
CASES = [
    ("small_g", lambda f: small_g(f, N), N),
    ("a_k_table", lambda f: a_k_table(f, N), N),
    ("a_kl_table", lambda f: a_kl_table(f, N), N + 1),
    ("tangent_tables", lambda f: tangent_tables(f, N), N + 1),
    ("taut_tables", lambda f: taut_tables(f, N), N + 1),
    ("z_closed", lambda f: z_closed(f, N), N + 1),
    ("pair_coefficient", lambda f: pair_coefficient(f, PAIR, 3), PAIR.level),
    ("hook_coefficient", lambda f: hook_coefficient(f, PAIR), PAIR.level),
    ("equivariant_class_coeffs", lambda f: equivariant_class_coeffs(f, 3, N), N),
    ("z_series_hookform", lambda f: z_series_hookform(f, N), N),
    ("z_series_residue", lambda f: z_series_residue(f, N), N + 2),
    (
        "verify_multiplicative",
        lambda f: [(r.name, r.passed, r.detail) for r in verify_multiplicative(f, "todd", N)],
        N + 2,
    ),
]


@pytest.mark.parametrize("call, need", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_one_order_short_is_refused(call, need):
    with pytest.raises(InsufficientOrderError, match="insufficient precision"):
        call(preset_class("todd", need - 1))


@pytest.mark.parametrize("call, need", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_the_documented_order_suffices(call, need):
    assert call(preset_class("todd", need)) == call(preset_class("todd", need + 3))


@pytest.mark.parametrize("call", [small_g, a_k_table], ids=["small_g", "a_k_table"])
def test_order_zero_asks_for_the_linear_coefficient(call):
    # g to order 0 would read F = f(u) f(-u) to degree -1; the refusal is
    # the precision error of a series too short, not a malformed order
    with pytest.raises(InsufficientOrderError, match="at least the linear coefficient"):
        call(preset_class("todd", 4), 0)


def test_a_negative_level_is_a_value_error():
    with pytest.raises(ValueError):
        equivariant_class_coeffs(preset_class("todd", 4), 2, -1)


@pytest.mark.parametrize(
    "table",
    [a_kl_table(preset_class("todd", 7), 6), chern_character_tables(6)[1]],
    ids=["a_kl_table", "chern_character_tables"],
)
def test_a_table_entry_beyond_its_degree_is_refused(table):
    assert table.value(5, 1) == table.value(1, 5)
    for k, l in ((5, 5), (6, 1), (1, 6)):
        with pytest.raises(InsufficientOrderError, match="insufficient precision"):
            table.value(k, l)
    for k, l in ((0, 1), (3, 0), (2, -1)):
        with pytest.raises(ValueError, match="bad table index"):
            table.value(k, l)


def test_a_negative_total_degree_is_refused():
    z = z_closed(preset_class("todd", 5), 4)
    assert z.homogeneous(0) == (1,)
    with pytest.raises(SeriesError, match="exponents must be non-negative"):
        z.homogeneous(-1)
