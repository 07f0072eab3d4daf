"""Records (`quadcert.record`): immutable values compared by their fields.

Every record class of the package is built here from library calls, then
rebuilt from its own fields, positionally and by keyword: each way gives an
equal record with an equal hash, because `__slots__` lists the fields in the
order of the `__init__` parameters. No field can be assigned or deleted.
"""

import inspect

import pytest

import quadcert.cli  # noqa: F401 (imports every module, so every record class)
from quadcert.actions import AffineMap, Permutation, invariance_report
from quadcert.compression import rank_certificate
from quadcert.gf import field_make
from quadcert.profile import binary_profile, check_hypotheses
from quadcert.quadric import AmbientPoint, sample_quadric_point
from quadcert.record import Record
from quadcert.trace_system import solve_block_system

F11 = field_make(11)
BASE = AmbientPoint(F11, (9, 5, 1, 3, 4))


def _records() -> list[Record]:
    ctx = field_make(3, 4)
    point = sample_quadric_point(15, ctx, seed=7)
    g = AffineMap(ctx.element_at(2), ctx.element_at(5))
    return [
        binary_profile(15),
        check_hypotheses(15, 3, 4),
        point,
        solve_block_system(binary_profile(15), 3),
        Permutation((2, 3, 1)),
        g,
        invariance_report(point, g),
        rank_certificate(point),
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    # tests define records of their own
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("quadcert.")}
    assert {type(r) for r in RECORDS} == package
    assert len(RECORDS) == 8


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slots_are_the_init_parameters(record):
    cls = type(record)
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert type(cls.__slots__) is tuple and list(cls.__slots__) == params
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_rebuilt_from_its_fields(record):
    cls = type(record)
    fields = {name: getattr(record, name) for name in cls.__slots__}
    for copy in (cls(*fields.values()), cls(**fields)):
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)
        assert repr(copy) == repr(record)
    assert repr(record).startswith(f"{cls.__name__}({cls.__slots__[0]}=")


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    for name in type(record).__slots__ + ("other",):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name, None) is before


def test_equality_is_by_class_and_fields():
    assert AmbientPoint(F11, [9, 5, 1, 3, 4]) == BASE  # codes kept as a tuple
    assert AmbientPoint(F11, (9, 5, 1, 4, 3)) != BASE
    assert AmbientPoint(field_make(13), BASE.codes) != BASE  # contexts by identity
    assert Permutation((1, 2)) != AffineMap(F11.one, F11.zero)
    assert BASE != BASE.codes and BASE != None  # noqa: E711
    assert len({BASE, AmbientPoint(F11, BASE.codes), Permutation((1, 2))}) == 2
