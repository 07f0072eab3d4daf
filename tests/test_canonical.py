"""The certificate encoder against its oracle, json.dumps(indent=2).

`cli.canonical_json` must write exactly the bytes of
`json.dumps(doc, sort_keys=True, indent=2) + "\\n"` for every document of
the allowed types, and refuse every other value with TypeError. A document
that holds package values (field elements, points, records) must give the
bytes of its plain copy, `_docref.plain(doc)`.
"""

import json
import math

import pytest
from hypothesis import example, given, strategies as st

from _docref import plain
from _points import expanded
from quadcert import cli
from quadcert.actions import AffineMap, Permutation
from quadcert.cli import canonical_json
from quadcert.compression import RankCertificate
from quadcert.gf import FieldCtx, field_make
from quadcert.profile import binary_profile, check_hypotheses
from quadcert.quadric import AmbientPoint, sample_quadric_point
from quadcert.record import Record
from quadcert.trace_system import BlockLift, lift_block_solution, solve_block_system


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def assert_same_text(got: str, want: str) -> None:
    # reports the first difference: pytest's own diff of two certificates
    # of 100k lines would take minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 60, 0)
        pytest.fail(
            f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): "
            f"{got[lo:at + 60]!r} != {want[lo:at + 60]!r}"
        )


ints = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
# the whole code-point range: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates
strings = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()))
scalars = st.none() | st.booleans() | ints | strings
# coefficient vectors that repeat, as in points and lifts, booleans mixed in
int_lists = st.lists(st.integers(min_value=-3, max_value=3), max_size=3)
vectors = st.lists(int_lists | st.lists(ints | st.booleans(), max_size=3), max_size=12)
documents = st.recursive(
    scalars | int_lists | vectors,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(strings, children, max_size=5),
    max_leaves=40,
)


# one list object in several places, which hypothesis never draws
ROW = [1, 2]
EMPTY = []
FLAGGED = [True, 0]


@given(documents)
@example({"a": [[1, 2]], "b": [[[1, 2]]], "c": [1, 2]})  # one int list at three depths
@example([ROW, ROW, ROW])
@example({"a": [ROW, ROW], "b": [[ROW], [ROW, [1]]]})  # one row object at two depths
@example([EMPTY, [0], EMPTY])
@example([ROW, [1, 2], ROW, [2, 1]])  # a shared row beside an equal distinct one
@example([FLAGGED, [1, 0], FLAGGED])  # True == 1, yet it renders as true
@example({"a": [[1]], "b": [[True]], "c": [True, 1], "d": [[], [0]]})
@example({"kéy\n\"\\": ["\x00\x1f\x7f \U0001f600\ud800", -(2**70), 2**70]})
def test_matches_json_dumps(doc):
    assert_same_text(canonical_json(doc), oracle(doc))


# (argv, exit code): one of each command; construct 77 11 solves over
# GF(121), so its coefficient vectors have length 2; construct 4095 3 lifts
# to 4095 coordinates with few distinct values.
REAL = (
    (["check", "15", "3"], 0),
    (["solve", "15", "3"], 0),
    (["construct", "15", "3"], 0),
    (["construct", "12", "3"], 2),
    (["sample", "15", "--field", "3^4", "--seed", "2"], 0),
    (["sample", "5", "--field", "7", "--seed", "1"], 2),
    (["borel-check", "10", "--field", "5^2", "--seed", "3", "--samples", "3"], 0),
    (["certify", "15", "3", "--field-degree", "4", "--samples", "2", "--seed", "1"], 0),
    (["certify", "7", "5", "--field-degree", "4", "--samples", "1", "--control"], 0),
    (["construct", "77", "11"], 0),
    (["construct", "4095", "3"], 0),
)


@pytest.mark.parametrize("argv, code", REAL, ids=[" ".join(a) for a, _ in REAL])
def test_real_documents_match_json_dumps(argv, code, monkeypatch, capsys):
    # main must emit through the module-level canonical_json, so the spy
    # sees every document
    seen = []
    encode = cli.canonical_json

    def spy(doc):
        seen.append(doc)
        return encode(doc)

    monkeypatch.setattr(cli, "canonical_json", spy)
    assert cli.main(argv) == code
    (doc,) = seen
    text = capsys.readouterr().out
    doc = plain(doc)
    assert_same_text(text, oracle(doc))
    if argv[:2] == ["construct", "77"]:
        assert doc["field"]["k"] == 2 and len(doc["payload"]["lift"][0]) == 2
    if argv[:2] == ["construct", "4095"]:
        lift = doc["payload"]["lift"]
        assert len(lift) == 4095 and len({tuple(c) for c in lift}) < 20


def test_each_point_and_lift_converts_its_codes_in_one_call(monkeypatch):
    # a written point hands its n codes to one text-mode _pack_codes call,
    # and a lift its r run codes, never its n coordinates
    asked = []
    pack = FieldCtx._pack_codes

    def spy(ctx, codes, width):
        codes = list(codes)
        if isinstance(width, str):
            asked.append(codes)
        return pack(ctx, codes, width)

    monkeypatch.setattr(FieldCtx, "_pack_codes", spy)
    points = [sample_quadric_point(n, field_make(3, 4), seed) for n, seed in ((15, 2), (5, 1), (15, 3))]
    canonical_json({"points": points})
    assert asked == [list(point.codes) for point in points]
    asked.clear()
    lift = lift_block_solution(solve_block_system(binary_profile(4095), 3))
    canonical_json(lift)
    assert expanded(lift).n == 4095 and len(lift.codes) == 12
    assert asked == [list(lift.codes)]


class Box(Record):
    __slots__ = ("items", "tag")


# package values: field elements, points and records, over prime fields and
# extensions; GF(3^12) packs its digits in more than one chunk, GF(3^5) and
# GF(3^7) have odd degree, and the codes of GF(1021) split into one-digit
# chunks
FIELDS = [
    field_make(p, k)
    for p, k in ((3, 1), (7, 1), (31, 1), (1021, 1), (5, 2), (3, 4), (3, 5), (3, 7), (7, 3), (3, 12))
]


def _points(ctx):
    codes = st.integers(0, ctx.size - 1)
    # few distinct codes, each repeated, as in a lift; or all codes distinct
    lifts = st.lists(codes, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)
    )
    distinct = st.lists(codes, min_size=2, max_size=min(ctx.size, 30), unique=True)
    # block lifts: runs of a few codes, so that adjacent runs can share a
    # code and one code can make the whole lift, with counts from 1
    runs = st.lists(codes, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)), min_size=1, max_size=6)
    )
    block_lifts = runs.filter(lambda runs: sum(m for _, m in runs) >= 2).map(
        lambda runs: BlockLift(ctx, *zip(*runs))
    )
    return (lifts | distinct).map(lambda c: AmbientPoint(ctx, c)) | block_lifts


def _deep(value):
    # a value at several depths, so the writer reads its vector templates at
    # several indents
    return st.sampled_from([value, [value], [[value]], {"a": [[value]]}])


def _package_values(ctx):
    element = st.integers(0, ctx.size - 1).map(ctx.element_at)
    unit = st.integers(1, ctx.size - 1).map(ctx.element_at)
    return (
        element.flatmap(_deep)
        | _points(ctx).flatmap(_deep)
        | st.builds(AffineMap, unit, element)
        | st.builds(RankCertificate, ints, ints, ints, ints, st.booleans())
        | st.permutations(range(1, 6)).map(lambda images: Permutation(tuple(images)))
        | st.builds(check_hypotheses, st.integers(1, 200), st.sampled_from([3, 5, 7]), st.integers(1, 3))
        | st.builds(binary_profile, st.integers(1, 10**6))
    )


package_documents = st.sampled_from(FIELDS).flatmap(
    lambda ctx: st.recursive(
        _package_values(ctx) | scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(strings, children, max_size=4)
        # a record whose tuple field holds any values, records among them
        | st.builds(Box, st.lists(children, max_size=4).map(tuple), children),
        max_leaves=12,
    )
)


@given(package_documents)
def test_package_values_match_their_plain_copy(doc):
    assert_same_text(canonical_json(doc), oracle(plain(doc)))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda ctx: f"GF({ctx.p}^{ctx.k})")
def test_vectors_of_every_field_match_at_several_depths(ctx):
    # the draws above need not reach every field; this writes each field's
    # vectors at four indents, in arrays, objects and a record, and a lift's
    # runs at two
    a, b, c = (ctx.element_at(code) for code in (0, ctx.size - 1, ctx.size // 2))
    point = AmbientPoint(ctx, [0, ctx.size - 1, ctx.size // 2, ctx.size - 1])
    lift = BlockLift(ctx, [ctx.size - 1, ctx.size // 2, ctx.size - 1], [2, 1, 3])
    doc = {"a": [a, point], "b": [[b, point]], "c": [[[point, c]]], "d": Box((point, c), [[a]]), "e": b}
    doc["f"] = [lift, [[lift]]]
    assert_same_text(canonical_json(doc), oracle(plain(doc)))


@pytest.mark.parametrize(
    "doc",
    [
        1.5,
        math.nan,
        math.inf,
        -math.inf,
        {"x": [1, 2.0]},
        [[1], [1.0]],  # 1.0 == 1: must not reuse the rendering of [1]
        {1: "a"},
        {"a": 1, 2: "b"},
        {None: 0},
        (1, 2),
        [(1, 2)],
        {1, 2},
        b"bytes",
        object(),
        {"point": [[1], [2], [3 + 0j]]},
    ],
    # repr(object()) carries a memory address, which would make that case's id
    # differ from run to run.
    ids=lambda doc: "object()" if type(doc) is object else repr(doc),
)
def test_rejects_values_outside_the_contract(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


def test_int_subclasses_are_not_ints():
    class Coefficient(int):
        pass

    with pytest.raises(TypeError):
        canonical_json([Coefficient(1)])
    with pytest.raises(TypeError):
        canonical_json({"lift": [[1], [Coefficient(1)]]})
