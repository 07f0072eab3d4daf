"""Records (`quadcert.record`): immutable values compared by their fields.

Every record class of the package is built here from library calls, then
rebuilt from its own fields, by position, by keyword and both: each way gives an
equal record with an equal hash, because `Record.__init__` sets the fields in
`__slots__` order and a class's own `__init__` takes exactly its slots. A
missing, unknown or repeated field, or one value too many, raises TypeError.
No field can be assigned or deleted.

No module but `record` calls `set_field`, and no record class of the package
has an `__init__` that only passes its parameters on: a class without checks
uses `Record.__init__`.
"""

import ast
import inspect
from pathlib import Path

import pytest

import quadcert.cli  # noqa: F401 (imports every module, so every record class)
from quadcert.actions import AffineMap, Permutation, invariance_report
from quadcert.compression import rank_certificate
from quadcert.gf import field_make
from quadcert.profile import BinaryProfile, binary_profile, check_hypotheses
from quadcert.quadric import AmbientPoint, sample_quadric_point
from quadcert.record import Record
from quadcert.trace_system import lift_block_solution, solve_block_system

PACKAGE = Path(quadcert.cli.__file__).parent
F11 = field_make(11)
BASE = AmbientPoint(F11, (9, 5, 1, 3, 4))


def _records() -> list[Record]:
    ctx = field_make(3, 4)
    point = sample_quadric_point(15, ctx, seed=7)
    g = AffineMap(ctx.element_at(2), ctx.element_at(5))
    sol = solve_block_system(binary_profile(15), 3)
    return [
        binary_profile(15),
        check_hypotheses(15, 3, 4),
        point,
        sol,
        lift_block_solution(sol),
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
    assert len(RECORDS) == 9


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slots_are_the_init_parameters(record):
    # where a record class has its own __init__, it takes exactly the slots
    cls = type(record)
    assert type(cls.__slots__) is tuple and not hasattr(record, "__dict__")
    if "__init__" in vars(cls):
        assert tuple(inspect.signature(cls.__init__).parameters)[1:] == cls.__slots__


@pytest.mark.parametrize(
    "values, named, message",
    [
        ((15,), {}, "field 'exponents' of a record is missing"),
        ((), {"exponents": (3, 2, 1, 0)}, "field 'n' of a record is missing"),
        ((15, (3, 2, 1, 0)), {"r": 4}, "'r' is not a field"),
        ((15,), {"n": 15, "exponents": (3, 2, 1, 0)}, "'n' is not a field.* given twice"),
        ((15, (3, 2, 1, 0), 4), {}, "3 values for the 2 fields"),
    ],
    ids=["missing-last", "missing-first", "unknown", "repeated", "too-many"],
)
def test_a_wrong_set_of_fields_raises_type_error(values, named, message):
    with pytest.raises(TypeError, match=message):
        BinaryProfile(*values, **named)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_rebuilt_from_its_fields(record):
    cls = type(record)
    fields = {name: getattr(record, name) for name in cls.__slots__}
    first, *rest = cls.__slots__
    mixed = cls(fields[first], **{name: fields[name] for name in rest})
    for copy in (cls(*fields.values()), cls(**fields), mixed):
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


def _passes_on(stmt: ast.stmt, params: set[str]) -> bool:
    """stmt is a call whose arguments are all parameters or constants."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    args = stmt.value.args + [kw.value for kw in stmt.value.keywords]
    return all(
        isinstance(a, ast.Constant) or isinstance(a, ast.Name) and a.id in params for a in args
    )


def copying_inits(source: str) -> list[str]:
    """`line: code` for each use of `set_field`, and for each `__init__` of a
    `Record` subclass that only passes its parameters on: every statement a
    call of parameters and constants, so there is nothing to check."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "set_field":
            found.append((node.lineno, "set_field"))
        elif isinstance(node, ast.ClassDef) and "Record" in map(ast.unparse, node.bases):
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    params = {a.arg for a in init.args.args}
                    if all(_passes_on(stmt, params) for stmt in init.body):
                        found.append((init.lineno, f"{node.name}.__init__"))
    return [f"{line}: {code}" for line, code in sorted(found)]


def test_the_guard_flags_an_init_that_only_passes_its_parameters_on():
    source = """
class Copy(Record):
    __slots__ = ("n", "exponents")

    def __init__(self, n, exponents):
        set_field(self, "n", n)
        set_field(self, "exponents", exponents)


class Forward(Record):
    __slots__ = ("images",)

    def __init__(self, images):
        Record.__init__(self, images=images)


class Checked(Record):
    __slots__ = ("images",)

    def __init__(self, images):
        if not images:
            raise ValueError("no images")
        Record.__init__(self, images)


class Converted(Record):
    __slots__ = ("codes",)

    def __init__(self, codes):
        Record.__init__(self, tuple(codes))


class Plain:
    def __init__(self, a):
        set_up(self, a)
"""
    assert copying_inits(source) == [
        "5: Copy.__init__",
        "6: set_field",
        "7: set_field",
        "13: Forward.__init__",
    ]


@pytest.mark.parametrize(
    "name", sorted(f.name for f in PACKAGE.glob("*.py") if f.name != "record.py")
)
def test_no_record_init_only_passes_its_parameters_on(name):
    assert copying_inits((PACKAGE / name).read_text()) == []
