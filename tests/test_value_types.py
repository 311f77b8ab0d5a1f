"""Value semantics of the package's immutable types.

Each type compares by its fields, hashes equal values alike, refuses
assignment, survives ``copy`` and ``deepcopy``, and, where its fields
pickle, a ``pickle`` round trip.  ``Series1`` and ``Series2`` carry a
ring, which copies and pickles by name as the module-level singleton,
so a copied series still multiplies with the original.
"""

import copy
import pickle
from fractions import Fraction as Fr

import pytest

from hilbfock.cli import ClassSpec
from hilbfock.closedform import KIND_THEOREM, CoeffTable, preset_class
from hilbfock.localisation import FixedPointBasisVector
from hilbfock.partitions import Partition
from hilbfock.rings import DUALS, QQ, DualNumber, Ring
from hilbfock.series import Series1, Series2, log_numerators
from hilbfock.verification import CheckResult

# name: (build one value, a field to assign, hashable, picklable, repr)
CASES = {
    "Series1": (
        lambda: Series1(coefficients=(1, Fr(1, 2)), order=1),
        "order",
        True,
        True,
        "Series1(coefficients=(Fraction(1, 1), Fraction(1, 2)), order=1, ring=QQ)",
    ),
    "Series2": (
        lambda: Series2(((1,),), 0),
        "rows",
        True,
        True,
        "Series2(rows=((Fraction(1, 1),),), order=0, ring=QQ)",
    ),
    "Partition": (
        lambda: Partition((2, 1, 0)),
        "parts",
        True,
        True,
        "Partition(parts=(2, 1))",
    ),
    "FixedPointBasisVector": (
        lambda: FixedPointBasisVector(lambda0=Partition((1,)), lambda1=Partition()),
        "lambda1",
        True,
        True,
        "FixedPointBasisVector(lambda0=Partition(parts=(1,)), lambda1=Partition(parts=()))",
    ),
    "DualNumber": (
        lambda: DualNumber(Fr(1, 2), infinitesimal=3),
        "value",
        True,
        True,
        "DualNumber(1/2, 3)",
    ),
    "CoeffTable": (
        lambda: CoeffTable(KIND_THEOREM, 2, {(1, 1): Fr(1, 2)}),
        "entries",
        False,
        True,
        "CoeffTable(kind='theorem_a_kl', max_degree=2, entries={(1, 1): Fraction(1, 2)})",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    build, field, hashable, picklable, shown = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert a.__eq__(object()) is NotImplemented
    assert repr(a) == shown
    if hashable:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    if picklable:
        assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("ring", [QQ, DUALS])
def test_rings_copy_and_pickle_as_themselves(ring):
    assert copy.copy(ring) is ring
    assert copy.deepcopy(ring) is ring
    assert pickle.loads(pickle.dumps(ring)) is ring


def test_another_ring_copies_to_an_equal_ring():
    # only QQ and DUALS copy by name; any other ring rebuilds from its fields
    ring = Ring("QQ again", *QQ._fields()[1:])
    twin = copy.copy(ring)
    assert twin is not ring
    assert twin == ring


def test_deep_copied_series_multiplies_with_the_original():
    todd = preset_class("todd", 8)
    twin = copy.deepcopy(todd)
    assert twin.ring is QQ
    assert twin * todd == todd * todd


def test_deep_copied_series_keeps_the_integer_log():
    todd = preset_class("todd", 8)
    weights, denominator = log_numerators(todd)
    assert denominator > 1
    assert log_numerators(copy.deepcopy(todd)) == (weights, denominator)


def test_frozen_constructor_takes_every_field_by_position_or_name():
    spec = ClassSpec("todd", preset="todd", coefficients=None)
    assert spec == ClassSpec("todd", "todd", None)
    assert (spec.label, spec.preset, spec.coefficients) == ("todd", "todd", None)
    assert CheckResult(name="parity", passed=True, detail="", seconds=0.5).seconds == 0.5


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FixedPointBasisVector(Partition((1,))), "missing the field 'lambda1'"),
        (lambda: FixedPointBasisVector(lambda0=Partition()), "missing the field 'lambda1'"),
        (lambda: ClassSpec("todd", "todd"), "missing the field 'coefficients'"),
        (lambda: CheckResult("parity", True, "", 0.5, 1), "takes 4 fields, got 5"),
        (
            lambda: FixedPointBasisVector(Partition(), Partition(), level=0),
            "unknown or repeated field 'level'",
        ),
        (
            lambda: FixedPointBasisVector(Partition(), Partition(), lambda0=Partition()),
            "unknown or repeated field 'lambda0'",
        ),
    ],
)
def test_frozen_constructor_refuses_a_missing_or_unknown_field(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_checking_constructors_check_then_set_every_field():
    with pytest.raises(ValueError, match="unknown coefficient table kind"):
        CoeffTable("no-such-kind", 2, {})
    assert CoeffTable(KIND_THEOREM, 2, {}).max_degree == 2
