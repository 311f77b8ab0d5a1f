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
from hilbfock.series import InsufficientOrderError
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
        call(preset_class("todd", need - 1).f)


@pytest.mark.parametrize("call, need", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_the_documented_order_suffices(call, need):
    assert call(preset_class("todd", need).f) == call(preset_class("todd", need + 3).f)


def test_a_negative_level_is_a_value_error():
    with pytest.raises(ValueError):
        equivariant_class_coeffs(preset_class("todd", 4).f, 2, -1)
