"""Command line behavior: exit codes, document shapes, reproducibility."""

import contextlib
import hashlib
import importlib.resources
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from _docref import written
from _points import expanded
import quadcert.cli
from quadcert.cli import canonical_json, main
from quadcert.gf import SIZE_LIMIT, FieldCtx, field_make
from quadcert.profile import binary_profile, solution_field_degree
from quadcert.quadric import AmbientPoint
from quadcert.record import Record
from quadcert.trace_system import (
    BlockLift,
    BlockSolution,
    evaluate_system,
    lift_block_solution,
    solve_block_system,
)


SCHEMA = json.loads(
    importlib.resources.files("quadcert")
    .joinpath("schema/certificate.schema.json")
    .read_text()
)


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--json", str(out)])
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def checks_passed(doc):
    return {c["name"]: c["passed"] for c in doc["checks"]}


def test_check_applies(tmp_path):
    code, doc = run_json(tmp_path, ["check", "15", "3"])
    assert code == 0
    assert doc["payload"]["applies"] is True
    assert doc["payload"]["required_field_degree"] == 2
    assert doc["payload"]["reasons"] == ["NeedsQuadraticExtension"]
    code, doc = run_json(tmp_path, ["check", "15", "3", "--degree", "2"])
    assert code == 0 and doc["payload"]["reasons"] == ["Ok"]


def test_check_rejects(tmp_path):
    code, doc = run_json(tmp_path, ["check", "16", "3"])
    assert code == 2
    assert checks_passed(doc) == {"applies": False}
    assert set(doc["payload"]["reasons"]) == {"PNotDividingN", "RTooSmall"}
    code, doc = run_json(tmp_path, ["check", "31", "31"])
    assert code == 0 and doc["payload"]["required_field_degree"] == 1


def test_solve_pin(tmp_path):
    code, doc = run_json(tmp_path, ["solve", "15", "3"])
    assert code == 0
    assert doc["payload"]["c"] == [[1], [1], [0], [0]]
    assert all(checks_passed(doc).values())


def test_solve_invalid_profile(tmp_path):
    code, doc = run_json(tmp_path, ["solve", "12", "3"])
    assert code == 2
    assert doc["payload"]["error"] == "InvalidProfile"
    code, doc = run_json(tmp_path, ["solve", "15", "7"])
    assert code == 2
    assert "divide" in doc["payload"]["message"]


def test_construct(tmp_path):
    code, doc = run_json(tmp_path, ["construct", "15", "3"])
    assert code == 0
    assert doc["payload"]["c"] == [[1], [1], [0], [0]]
    assert doc["payload"]["lift"] == [[1]] * 12 + [[0]] * 3
    passed = checks_passed(doc)
    assert passed["lift_on_quadric"] and passed["lift_off_small_diagonal"]
    code, _ = run_json(tmp_path, ["construct", "15", "5"])
    assert code == 0
    code, doc = run_json(tmp_path, ["construct", "12", "3"])
    assert code == 2 and doc["payload"]["error"] == "InvalidProfile"


def test_sample(tmp_path):
    code, doc = run_json(tmp_path, ["sample", "5", "--field", "11", "--seed", "7"])
    assert code == 0
    assert all(checks_passed(doc).values())
    assert len(doc["payload"]["point"]) == 5


def test_sample_empty_locus(tmp_path):
    code, doc = run_json(tmp_path, ["sample", "5", "--field", "7", "--seed", "1"])
    assert code == 2
    assert doc["payload"]["error"] == "NoPointFound"
    assert "extension" in doc["payload"]["suggestion"]
    code, doc = run_json(
        tmp_path, ["sample", "6", "--field", "3^2", "--max-tries", "150"]
    )
    assert code == 2


def test_sample_extension_field(tmp_path):
    code, doc = run_json(tmp_path, ["sample", "15", "--field", "3^4", "--seed", "2"])
    assert code == 0
    assert doc["field"] == {"p": 3, "k": 4, "modulus": [1, 0, 1, 1, 1]}


def test_borel_check(tmp_path):
    code, doc = run_json(
        tmp_path, ["borel-check", "5", "--field", "11", "--seed", "3", "--samples", "4"]
    )
    assert code == 0
    assert checks_passed(doc)["invariance_identities_all"]
    assert len(doc["payload"]["reports"]) == 4


def test_certify_divisible(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["certify", "15", "3", "--field-degree", "4", "--samples", "3", "--seed", "1"],
    )
    assert code == 0
    passed = checks_passed(doc)
    assert passed["hypotheses_apply"]
    assert passed["all_samples_within_bound"]
    assert passed["faithfulness_witness_all"]
    assert passed["block_solution_verified"]
    pay = doc["payload"]
    assert pay["control"] is False
    assert pay["verdict"] is True
    assert pay["block_solution"]["c"] == [[1], [1], [0], [0]]
    assert len(pay["samples"]) == 3
    assert all(s["bound"] == 11 for s in pay["samples"])
    assert pay["observed_restricted_ranks"]["max"] <= 11


def test_certify_control(tmp_path):
    code, doc = run_json(
        tmp_path, ["certify", "5", "11", "--samples", "3", "--seed", "2"]
    )
    assert code == 0
    pay = doc["payload"]
    # 11 does not divide 5: the run downgrades itself to a control
    assert pay["control"] is True
    assert pay["control_requested"] is False
    assert pay["block_solution"] is None
    assert all(s["bound"] == 2 for s in pay["samples"])
    code2, doc2 = run_json(
        tmp_path, ["certify", "5", "11", "--samples", "3", "--seed", "2", "--control"]
    )
    assert code2 == 0
    assert doc2["payload"]["control_requested"] is True
    assert doc2["payload"]["samples"] == pay["samples"]


def test_certify_no_point(tmp_path):
    code, doc = run_json(tmp_path, ["certify", "5", "7", "--samples", "2"])
    assert code == 2
    assert doc["payload"]["error"] == "NoPointFound"
    # the block solve succeeds; 4095 distinct coordinates cannot fit in GF(13)
    code, doc = run_json(tmp_path, ["certify", "4095", "13", "--samples", "1"])
    assert code == 2
    assert doc["payload"]["error"] == "NoPointFound"


def _zero_solution(profile, p):
    sol = solve_block_system(profile, p)
    return BlockSolution(sol.profile, sol.weights, tuple(sol.ctx.zero for _ in sol.c), sol.ctx)


def test_zero_block_solution_fails_every_command(tmp_path, monkeypatch):
    # c = 0 satisfies both weighted sums and lifts to the constant vector,
    # which lies on the quadric: only the nontrivial and off-small-diagonal
    # checks catch it, and certify must apply them as construct does
    monkeypatch.setattr("quadcert.cli.solve_block_system", _zero_solution)
    code, doc = run_json(
        tmp_path, ["certify", "15", "3", "--field-degree", "4", "--samples", "1"]
    )
    passed = checks_passed(doc)
    assert code == 3 and passed["block_solution_verified"] is False
    assert passed["all_samples_within_bound"] and passed["faithfulness_witness_all"]
    assert doc["payload"]["verdict"] is False
    assert doc["payload"]["block_solution"]["c"] == [[0]] * 4
    for command in ("solve", "construct"):
        code, doc = run_json(tmp_path, [command, "15", "3"])
        passed = checks_passed(doc)
        assert code == 3 and passed["nontrivial"] is False
        assert passed["linear_sum_zero"] and passed["quadratic_sum_zero"]
    assert passed["lift_on_quadric"] and passed["lift_off_small_diagonal"] is False


@pytest.mark.parametrize("zero", [False, True], ids=["solved", "zero"])
@pytest.mark.parametrize(
    "n, p, degree",
    # the block solution of 77 = 64 + 8 + 4 + 1 lies over GF(11^2)
    [(15, 3, 4), (77, 11, 4), (199, 199, 2)],
)
def test_certify_writes_and_verifies_the_block_solution_of_construct(tmp_path, monkeypatch, n, p, degree, zero):
    if zero:
        monkeypatch.setattr("quadcert.cli.solve_block_system", _zero_solution)
    _, built = run_json(tmp_path, ["construct", str(n), str(p)], "construct.json")
    _, doc = run_json(
        tmp_path, ["certify", str(n), str(p), "--field-degree", str(degree), "--samples", "1"]
    )
    block = dict(built["payload"])
    del block["checks_values"], block["lift_sums"]
    assert doc["payload"]["block_solution"] == block
    verified = all(checks_passed(built).values())
    assert verified is not zero
    assert checks_passed(doc)["block_solution_verified"] is verified


# Each test below replaces one producer of a command, where the command
# looks it up, so that one subject of the certificate is wrong: the check
# on that subject fails, and with it the exit code.


def test_sample_checks_that_the_point_is_on_the_quadric(tmp_path, monkeypatch):
    f11 = field_make(11, 1)
    point = AmbientPoint(f11, (1, 2, 3, 4, 5))  # coordinate sum 15 = 4
    monkeypatch.setattr("quadcert.cli.sample_quadric_point", lambda *args: point)
    code, doc = run_json(tmp_path, ["sample", "5", "--field", "11"])
    passed = checks_passed(doc)
    assert code == 3 and passed["on_quadric"] is False
    assert passed["off_discriminant"]


def test_sample_checks_that_the_codes_are_distinct(tmp_path, monkeypatch):
    # the block lift of (1, 1, 0, 0) lies on the quadric with repeated codes
    lift = expanded(lift_block_solution(solve_block_system(binary_profile(15), 3)))
    monkeypatch.setattr("quadcert.cli.sample_quadric_point", lambda *args: lift)
    code, doc = run_json(tmp_path, ["sample", "15", "--field", "3"])
    passed = checks_passed(doc)
    assert code == 3 and passed["off_discriminant"] is False
    assert passed["on_quadric"]


def _solve_with(tmp_path, monkeypatch, *c):
    """Run solve 15 3 (weights 2, 1, 2, 1) with the solver's values
    replaced by c; return the exit code, the checks and whether each of the
    two sums vanishes."""
    sol = solve_block_system(binary_profile(15), 3)
    sol = BlockSolution(sol.profile, sol.weights, tuple(map(sol.ctx.el, c)), sol.ctx)
    monkeypatch.setattr("quadcert.cli.solve_block_system", lambda profile, p: sol)
    code, doc = run_json(tmp_path, ["solve", "15", "3"])
    assert doc["payload"]["c"] == [[v] for v in c]
    return code, checks_passed(doc), [s.is_zero() for s in evaluate_system(sol)]


def test_solve_checks_the_linear_equation(tmp_path, monkeypatch):
    code, passed, sums = _solve_with(tmp_path, monkeypatch, 1, 0, 0, 0)
    assert sums == [False, False]
    assert code == 3 and passed["linear_sum_zero"] is False


def test_solve_checks_the_quadratic_equation(tmp_path, monkeypatch):
    # 2 + 2 * 2 = 0 but 2 + 2 * 4 = 1 over GF(3)
    code, passed, sums = _solve_with(tmp_path, monkeypatch, 1, 0, 2, 0)
    assert sums == [True, False]
    assert code == 3 and passed["quadratic_sum_zero"] is False
    assert passed["linear_sum_zero"]


def test_solve_checks_the_last_coordinate(tmp_path, monkeypatch):
    # 2 + 1 = 0 and 2 + 1 = 0 over GF(3), with c_r = 1
    code, passed, sums = _solve_with(tmp_path, monkeypatch, 1, 0, 0, 1)
    assert sums == [True, True]
    assert code == 3 and passed["last_coordinate_zero"] is False
    assert passed["linear_sum_zero"] and passed["quadratic_sum_zero"]
    assert passed["nontrivial"]


def test_no_call_for_the_lift_walks_its_coordinates(tmp_path, monkeypatch):
    # a lift is held as its r runs (ROADMAP item 26): construct and certify
    # solve, check and write it with no call on more than r codes, and build
    # no point of its n coordinates. The lift lies in GF(3), certify's
    # sampled points in GF(3^4), and calls on those are exempt.
    calls, points = [], []  # (context, number of codes), context

    def spy(name):
        method = getattr(FieldCtx, name)

        def counted(ctx, codes, *args, **kwargs):
            codes = list(codes)
            calls.append((ctx, len(codes)))
            return method(ctx, codes, *args, **kwargs)

        monkeypatch.setattr(FieldCtx, name, counted)

    for name in ("sums", "_pack_codes"):
        spy(name)
    init = AmbientPoint.__init__

    def built(point, ctx, codes):
        points.append(ctx)
        init(point, ctx, codes)

    monkeypatch.setattr(AmbientPoint, "__init__", built)
    lift_ctx = field_make(3)
    for command, n in (("construct", 4095), ("certify", 15)):
        calls.clear(), points.clear()
        options = ["--field-degree", "4", "--samples", "1"] if command == "certify" else []
        code, doc = run_json(tmp_path, [command, str(n), "3"] + options)
        payload = doc["payload"] if command == "construct" else doc["payload"]["block_solution"]
        assert code == 0 and len(payload["lift"]) == n
        on_the_lift = [size for ctx, size in calls if ctx is lift_ctx]
        assert on_the_lift and max(on_the_lift) <= binary_profile(n).r
        assert points == [] if command == "construct" else lift_ctx not in points



# (argv, first 16 hex digits of the sha256 of stdout)
LIFT_OUTPUTS = (
    (["construct", "4095", "3"], "43b680ee502a30c4"),
    (["certify", "15", "3", "--field-degree", "4", "--samples", "1"], "b2bf17181be1d062"),
)


def test_the_lift_sums_go_through_the_traced_power_sums(monkeypatch):
    # perfbench/tracing.py times `quadcert.cli.power_sums`: construct and
    # certify sum their lift there, in one call on its runs, and write the
    # same bytes
    traced = quadcert.cli.power_sums
    calls = []

    def counted(a, *args):
        calls.append(a)
        return traced(a, *args)

    monkeypatch.setattr("quadcert.cli.power_sums", counted)
    for argv, digest in LIFT_OUTPUTS:
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        n, p = int(argv[1]), int(argv[2])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest
        assert calls == [lift_block_solution(solve_block_system(binary_profile(n), p))]
        assert len(calls[0].codes) == binary_profile(n).r


def test_construct_and_certify_check_the_lift(tmp_path, monkeypatch):
    def moved_lift(sol):
        # the last coordinate plus one; 15 = 8 + 4 + 2 + 1, so it is the
        # whole last run
        lift = lift_block_solution(sol)
        assert lift.counts[-1] == 1
        moved = sol.ctx.element_index(sol.ctx.element_at(lift.codes[-1]) + sol.ctx.one)
        return BlockLift(sol.ctx, lift.codes[:-1] + (moved,), lift.counts)

    monkeypatch.setattr("quadcert.cli.lift_block_solution", moved_lift)
    code, doc = run_json(tmp_path, ["construct", "15", "3"])
    passed = checks_passed(doc)
    assert code == 3 and passed["lift_on_quadric"] is False
    assert passed["linear_sum_zero"] and passed["quadratic_sum_zero"]
    assert passed["lift_off_small_diagonal"]
    code, doc = run_json(
        tmp_path, ["certify", "15", "3", "--field-degree", "4", "--samples", "1"]
    )
    passed = checks_passed(doc)
    assert code == 3 and passed["block_solution_verified"] is False
    assert passed["all_samples_within_bound"]
    assert doc["payload"]["verdict"] is False


def test_certify_checks_the_restricted_rank(tmp_path, monkeypatch):
    # rank G = 2 gives restricted rank n - 2, above both bounds
    monkeypatch.setattr("quadcert.compression.gram_rank", lambda n, s1, s2: 2)
    code, doc = run_json(
        tmp_path,
        ["certify", "15", "3", "--field-degree", "4", "--samples", "2", "--seed", "1"],
    )
    passed = checks_passed(doc)
    assert code == 3 and passed["all_samples_within_bound"] is False
    assert passed["faithfulness_witness_all"] and passed["block_solution_verified"]
    samples = doc["payload"]["samples"]
    assert [(s["restricted_rank"], s["satisfied"]) for s in samples] == [(13, False)] * 2
    assert doc["payload"]["verdict"] is False


# The argvs of the usage-error and help tests below; tests/test_reachable.py
# runs them too, with the golden cases (see `refusal_argvs`).
PARSER_ERRORS = (
    [],
    ["frobnicate"],
    ["check", "15"],
    ["check", "15", "four"],
    ["sample", "5"],  # --field is required
)
HELP = (["-h"], ["certify", "--help"])


def test_usage_errors(capsys):
    for argv in PARSER_ERRORS:
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and "error" in err


def test_help_is_written_to_stdout(capsys):
    # help names every command, or every option of one command, and exits 0
    assert main(["-h"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: quadcert")
    assert all(command in out for command in ("check", "solve", "construct", "sample", "borel-check", "certify"))
    assert main(["certify", "15", "3", "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: quadcert certify n p")
    flags = ("--field-degree", "--samples", "--seed", "--max-tries", "--control", "--json", "--help")
    assert all(flag in out for flag in flags)


SEMANTIC_ERRORS = (
    ["check", "15", "2"],  # even characteristic
    ["check", "15", "6"],  # not prime, though even
    ["check", "15", "9"],  # not prime
    ["sample", "4", "--field", "11"],  # n too small
    ["sample", "5", "--field", "0^2"],
)


def test_semantic_usage_errors(capsys):
    # bad values that parse as ints still count as usage problems
    for argv in SEMANTIC_ERRORS:
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert "error" in err


USAGE_ERROR_SITES = [
    (["sample", "5", "--field", "3^x"], "malformed field spec"),
    (["sample", "5", "--field", "x"], "malformed field spec"),
    (["sample", "5", "--field", "3^2^1"], "malformed field spec"),
    (["sample", "5", "--field", "3^0"], "extension degree"),
    (["sample", "5", "--field", "3^13"], "exceeds the limit"),
    (["check", "15", "3", "--degree", "0"], "available_degree"),
    (["check", "0", "3"], "positive integer"),
    (["solve", "0", "3"], "positive integer"),
    (["borel-check", "4", "--field", "11"], "n >= 5"),
    (["certify", "4", "3"], "n >= 5"),
    # r = 4 with no GF(1061) solution needs GF(1061^2), above the field cap
    (["solve", "1061", "1061"], "field size 1061^2 exceeds the limit"),
    (["solve", "15", "0"], "not prime"),
    (["construct", "15", "0"], "not prime"),
    # refused at the limit before p^k or a primality test is computed
    (["check", "15", "3", "--degree", "20000000"], "exceeds the limit"),
    (["certify", "15", "3", "--field-degree", "200000000"], "exceeds the limit"),
    (["check", "15", "1000000000000000003"], "exceeds the limit"),
    (["solve", "15", "1000000000000000003"], "exceeds the limit"),
    (["sample", "5", "--field", "1000000000000000003"], "exceeds the limit"),
    # a --json PATH that cannot be opened for writing: here a directory
    (["check", "15", "3", "--json", str(Path(__file__).parent)], "cannot write"),
    # a --json PATH whose write fails after the open: a full device
    pytest.param(
        ["construct", "15", "3", "--json", "/dev/full"],
        "cannot write '/dev/full': No space left on device",
        marks=pytest.mark.skipif(
            not Path("/dev/full").exists(), reason="no /dev/full on this system"
        ),
    ),
    # a lift longer than the field cap, refused before it is allocated;
    # 3932160 = 2^21 + 2^20 + 2^19 + 2^18
    (["construct", "3932160", "3"], "exceeds the limit"),
    (["certify", "3932160", "3"], "exceeds the limit"),
    # the gate refuses p before it looks at the profile (12 has two terms)
    (["solve", "12", "4"], "4 is not prime"),
    (["construct", "10", "2"], "characteristic 2 is not supported"),
    # only ASCII decimal digits without sign, space, underscore or leading
    # zero, though int() reads each of these as 11 or 3^4
    (["sample", "5", "--field", "1_1"], "malformed field spec"),
    (["sample", "5", "--field", "+11"], "malformed field spec"),
    (["sample", "5", "--field", " 11"], "malformed field spec"),
    (["sample", "5", "--field", "\u0661\u0661"], "malformed field spec"),
    (["sample", "5", "--field", "011"], "malformed field spec"),
    (["sample", "5", "--field", "3^ 4"], "malformed field spec"),
    # an empty --json PATH is a path that cannot be opened, not stdout
    (["check", "15", "3", "--json="], "cannot write '': No such file or directory"),
    (["check", "15", "3", "--json", ""], "cannot write '': No such file or directory"),
    # an echoed word or path is quoted by repr, so that its newline stays on
    # the one line, and cut to 60 characters
    (["check", "15", "3", "--bo\ngus"], "unknown option '--bo\\ngus'"),
    (["check", "15", "3", "a\nb"], "extra value 'a\\nb'"),
    (["check", "15", "3", "--json", str(Path(__file__).parent / "no\nsuch" / "x.json")], "cannot write '"),
    (["check", "1" * 5000, "3"], "expected an integer, got '" + "1" * 59 + "\n"),
    (["check", "15", "3", "--bogus" + "s" * 300], "unknown option '--bogus" + "s" * 52 + "\n"),
    # an integer that a field refusal echoes whole is cut with its line
    (["check", "15", "1" + "0" * 400], "error: characteristic 1000"),
    (["check", "15", "3", "--degree", "1" + "0" * 400], "error: field size 3^1000"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERROR_SITES)
def test_usage_error_sites(argv, message, capsys):
    # every input a command rejects exits 4 with the reason on stderr and
    # no certificate on stdout
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize(
    "n, p",
    [(4095, 13), (4095, 7), (1023, 31)]
    # once refused for a search budget: r = 5 with 223^3 > 10^7 candidates,
    # and r = 4 falling back to GF(59^2) and GF(61^2), charged p^4 > 10^7
    + [(1561, 223), (649, 59), (305, 61)],
)
def test_former_budget_refusals_solve(tmp_path, n, p):
    # the solver has no search budget: each input solves, every check passes
    # and the document carries the library's solution
    code, doc = run_json(tmp_path, ["solve", str(n), str(p)])
    assert code == 0 and all(checks_passed(doc).values())
    sol = solve_block_system(binary_profile(n), p)
    assert all(s.is_zero() for s in evaluate_system(sol))
    assert doc["payload"]["c"] == [written(e) for e in sol.c]


class _Pair(Record):
    __slots__ = ("first", "second")


def test_writer_takes_nested_records_and_refuses_other_objects():
    f9 = field_make(3, 2)
    # codes 4 and 8 are 1 + x and 2 + 2x
    point = AmbientPoint(f9, (4, 8, 4))
    pair = _Pair(f9.element_at(4), None)
    assert written(pair) == {"first": [1, 1], "second": None}
    assert written(_Pair(point, pair)) == {
        "first": [[1, 1], [2, 2], [1, 1]],
        "second": {"first": [1, 1], "second": None},
    }
    # a tuple field is an array of its items, records among them; a tuple
    # anywhere else, one inside that array too, is refused
    assert written(_Pair((pair, point), 0)) == {
        "first": [{"first": [1, 1], "second": None}, [[1, 1], [2, 2], [1, 1]]],
        "second": 0,
    }
    for value in (f9, (pair, point), _Pair(((1,),), 0), 1.5, object()):
        with pytest.raises(TypeError):
            canonical_json(value)


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only UsageError (the field errors included) means bad input; a plain
    # ValueError from inside a command is a fault and must surface

    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr("quadcert.cli.check_hypotheses", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["check", "15", "3"])


def _exit_and_document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


GATE_PRIMES = st.one_of(
    st.sampled_from([3, 5, 7, 11, 13, 31, 127, 3137]),
    # 2, 0, 1, negatives and composites; r = 4 with no GF(1061) solution
    # needs GF(1061^2), above the field cap; 1048583 is a prime above 2^20
    st.sampled_from([2, 0, 1, -1, -3, -9, 4, 6, 9, 15, 1023, 1061, 1048583]),
)


@st.composite
def gate_inputs(draw):
    """(n, p) with n in [-2, 5000], drawn as a multiple of p about half the
    time, so that the gate admits some."""
    p = draw(GATE_PRIMES)
    ns = st.integers(-2, 5000)
    if 0 < p <= 5000:
        ns |= st.integers(1, 5000 // p).map(p.__mul__)
    return draw(ns), p


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gate_inputs())
@example((12, 4))
@example((10, 2))
@example((10, 3))
@example((1061, 1061))
@example((15, 3))
def test_solve_and_construct_exit_as_the_gate_decides(case):
    # the gate alone decides exit 2, and every input it refuses as usage
    # (exit 4) the solver refuses too; where the gate admits (n, p), a solve
    # exits 4 exactly when the solution's field GF(p^2) is above the cap
    n, p = case
    gate, doc = _exit_and_document(["check", str(n), str(p)])
    runs = [(gate, doc)]
    beyond_cap = gate == 0 and solution_field_degree(binary_profile(n), p) == 2 and p * p > SIZE_LIMIT
    for command in ("solve", "construct"):
        code, doc = _exit_and_document([command, str(n), str(p)])
        assert (code == 2) == (gate == 2), (command, code, gate)
        assert (code == 4) == (gate == 4 or beyond_cap), (command, code, gate)
        runs.append((code, doc))
    for code, doc in runs:
        assert code in (0, 2, 3, 4)
        assert (doc is None) == (code == 4)
        if code == 2:
            assert [c["passed"] for c in doc["checks"]].count(False) == 1


COUNT_ERRORS = [
    ["certify", "15", "31", "--samples", "0"],
    ["certify", "15", "31", "--samples", "-2"],
    ["certify", "15", "31", "--max-tries", "0"],
    ["borel-check", "5", "--field", "11", "--samples", "0"],
    ["sample", "5", "--field", "11", "--max-tries", "0"],
    ["sample", "5", "--field", "11", "--max-tries", "-1"],
    ["sample", "5", "--field", "11", "--max-tries", "many"],
]


@pytest.mark.parametrize("argv", COUNT_ERRORS)
def test_count_validation(argv, capsys):
    # zero or negative counts are usage errors, caught by the parser before
    # any work: not a vacuous pass, not a "no point found"
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "expected a positive integer" in err


BAD_SEEDS = [str(2**64 + 5), str(2**64), "-1", str(5 - 2**64), "five"]
SEEDED = [["sample", "7", "--field", "31"], ["borel-check", "7", "--field", "31"], ["certify", "15", "31"]]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("argv", SEEDED, ids=["sample", "borel-check", "certify"])
def test_seed_validation(argv, seed, capsys):
    # SplitMix64 keeps 64 bits of its seed: 2^64 + 5 and 5 - 2^64 would draw
    # the points of seed 5 under another recorded seed, so the parser refuses
    # every seed outside [0, 2^64) before any work
    assert main(argv + ["--seed", seed]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "expected a seed in [0, 2^64)" in err


def test_seed_range_ends(tmp_path):
    for seed in (0, 2**64 - 1):
        code, doc = run_json(tmp_path, ["sample", "7", "--field", "31", "--seed", str(seed)])
        assert code == 0
        assert doc["inputs"]["seed"] == seed


def test_sample_more_coordinates_than_elements(tmp_path):
    # 9 distinct coordinates cannot exist in GF(7): exit 2 with the reason
    code, doc = run_json(tmp_path, ["sample", "9", "--field", "7", "--seed", "1"])
    assert code == 2
    assert doc["payload"]["error"] == "NoPointFound"
    assert "the field has 7" in doc["payload"]["message"]


class _Drew(Exception):
    """A stubbed sampler's signal: the request got past its checks to a draw."""


def _no_draw(*args):
    raise _Drew


# n x samples = 2^20 sampled coordinates, the cap: certify 16 3 is a control
# run, so the sampler is its first work after the gate
AT_THE_CAP = [
    ["borel-check", "1024", "--field", "3^7", "--samples", "1024"],
    ["certify", "16", "3", "--field-degree", "4", "--samples", "65536"],
]


@pytest.mark.parametrize("argv", AT_THE_CAP, ids=["borel-check", "certify"])
def test_a_request_of_2_20_sampled_coordinates_gets_past_the_cap(argv, monkeypatch):
    # the sampler is stubbed, so that the test writes no 2^20 coordinates
    monkeypatch.setattr(quadcert.cli, "sample_quadric_point", _no_draw)
    with pytest.raises(_Drew):
        main(argv)


@pytest.mark.parametrize("argv", AT_THE_CAP, ids=["borel-check", "certify"])
def test_a_request_above_2_20_sampled_coordinates_is_refused_before_any_draw(argv, monkeypatch, capsys, tmp_path):
    # one sample more: exit 4, one stderr line and no document, no point drawn
    monkeypatch.setattr(quadcert.cli, "sample_quadric_point", _no_draw)
    out = tmp_path / "out.json"
    assert main(argv[:-1] + [str(int(argv[-1]) + 1), "--json", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.count("\n") == 1 and f"exceed the limit of {SIZE_LIMIT} coordinates" in err


def test_sample_of_more_coordinates_than_the_largest_field_exits_2_before_any_draw(tmp_path, monkeypatch):
    # sample writes one point, and n > q refuses it before a draw, so no
    # sample request holds more than 2^20 coordinates and it needs no cap
    monkeypatch.setattr(quadcert.quadric, "SplitMix64", _no_draw)
    code, doc = run_json(tmp_path, ["sample", str(SIZE_LIMIT + 1), "--field", "3^12"])
    assert code == 2 and doc["payload"]["error"] == "NoPointFound"
    assert "the field has 531441" in doc["payload"]["message"]


def test_stdout_matches_file(tmp_path, capsys):
    code = main(["sample", "5", "--field", "11", "--seed", "7"])
    assert code == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "o.json"
    main(["sample", "5", "--field", "11", "--seed", "7", "--json", str(out)])
    assert stdout == out.read_text()
    assert stdout.endswith("\n")
    jsonschema.validate(json.loads(stdout), SCHEMA)


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["certify", "5", "11", "--samples", "4", "--seed", "9"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_envelope_shape(tmp_path):
    _, doc = run_json(tmp_path, ["check", "15", "3"])
    assert doc["schema_version"] == "1"
    assert doc["command"] == "check"
    assert doc["inputs"] == {"n": 15, "p": 3, "degree": 1}
    raw = (tmp_path / "out.json").read_text()
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    # every call in a process parses with the same table: an option given to
    # one call must not carry into the next, and a usage error must leave the
    # table as it was
    argv = ["sample", "15", "--field", "3^4", "--seed", "2"]
    _, doc = run_json(tmp_path, argv + ["--max-tries", "5"], "limited.json")
    assert doc["inputs"]["max_tries"] == 5
    _, doc = run_json(tmp_path, argv, "default.json")
    assert doc["inputs"]["max_tries"] is None

    assert main(argv + ["--max-tries", "0"]) == 4
    assert capsys.readouterr().out == ""
    out = tmp_path / "after_error.json"
    assert main(argv + ["--json", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / "sample_15_gf81.json"
    assert out.read_bytes() == golden.read_bytes()


def refusal_argvs() -> list[list[str]]:
    """Every argv above that main refuses with exit 4, but one whose case is
    skipped here; tests/test_reachable.py runs them too."""
    argvs = list(PARSER_ERRORS) + list(SEMANTIC_ERRORS) + COUNT_ERRORS
    for case in USAGE_ERROR_SITES:  # (argv, message), or a pytest.param of them
        values, marks = (case.values, case.marks) if hasattr(case, "marks") else (case, ())
        if not any(mark.name == "skipif" and mark.args[0] for mark in marks):
            argvs.append(values[0])
    return argvs + [argv + ["--seed", seed] for argv in SEEDED for seed in BAD_SEEDS]


@pytest.mark.parametrize("argv", refusal_argvs())
def test_a_refusal_is_one_line(argv, capsys):
    # exit 4 writes no document and exactly one line on stderr, the parser's
    # refusals included
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("quadcert") and err.endswith("\n") and err.count("\n") == 1
    assert len(err) <= 201  # 200 characters and the newline
