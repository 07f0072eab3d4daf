"""The benchmark's independent checker judges every golden certificate.

`perfbench/verify.py` imports nothing from quadcert: it restates the field
arithmetic, the hypothesis gate and the rank bounds. Here it reads each
golden file as a request's output, with the file's exit code as the
expected one, and must find nothing wrong; pinned corruptions of a golden
file must be judged wrong. ROADMAP item 12 tightens the checker; its known
misses are pinned as strict xfails, so a fix shows up as an unexpected pass.
"""

import json

import pytest

from _perfbench import perfbench_module
from test_golden import CASES, GOLDEN

verify = perfbench_module("verify")
workloads = perfbench_module("workloads")

# the command's gate reading: check, solve, construct and certify take (n, p)
GATED = ("check", "solve", "construct", "certify")

# certify's no-point refusal lists only `point_found` in its checks, and the
# checker requires every certify document to report `hypotheses_apply`
NO_GATE_CHECK = {"certify_5_gf7_no_point"}


def _request(argv, code):
    if argv[0] in GATED:
        applies = workloads.gate_applies(int(argv[1]), int(argv[2]))
    else:  # sample and borel-check have no gate: the file's exit code decides
        applies = code == 0
    return workloads.Request(tuple(argv), code, applies)


def _judge(argv, code, text):
    return verify.judge(_request(argv, code), code, text, "")


def _text(stem):
    return (GOLDEN / f"{stem}.json").read_text()


@pytest.mark.parametrize(
    "stem, argv, code",
    [
        pytest.param(
            *case,
            marks=pytest.mark.xfail(
                case[0] in NO_GATE_CHECK,
                reason="certify's no-point refusal drops the hypotheses_apply check (ROADMAP item 12)",
                strict=True,
            ),
        )
        for case in CASES
    ],
    ids=[case[0] for case in CASES],
)
def test_checker_accepts_golden_certificate(stem, argv, code):
    assert _judge(argv, code, _text(stem)) == (False, [])


def _assert_judged_wrong(stem, corrupt):
    """The checker finds a problem in the golden file once `corrupt` has
    edited it, the problem that `corrupt` returns unless that is None."""
    _, argv, code = next(case for case in CASES if case[0] == stem)
    doc = json.loads(_text(stem))
    expected = corrupt(doc)
    _, problems = _judge(argv, code, json.dumps(doc))
    assert problems
    if expected is not None:
        assert expected in problems


def _corrupt_sample_coordinate(doc):
    point = doc["payload"]["samples"][0]["point"]
    point[0][0] = (point[0][0] + 1) % doc["field"]["p"]
    return "sample 0 is not on the quadric"


def _corrupt_lift_coordinate(doc):
    block = doc["payload"]["block_solution"]
    block["lift"][0][0] = (block["lift"][0][0] + 1) % block["field"]["p"]
    return "block lift is not on the quadric"


def _corrupt_restricted_rank(doc):
    doc["payload"]["samples"][0]["restricted_rank"] = 0
    return None  # any problem


def _corrupt_modulus(doc):
    # x^4 is reducible; the checker has no irreducibility test, but the
    # samples' power sums in the wrong ring are not zero
    doc["field"]["modulus"] = [0, 0, 0, 0, 1]
    return "sample 0 is not on the quadric"


def _corrupt_tangent_dim(doc):
    doc["payload"]["samples"][0]["tangent_dim"] = 12
    return "sample 0: tangent_dim or bound is wrong"


def _corrupt_ambient_rank_0(doc):
    doc["payload"]["samples"][0]["ambient_rank"] = 0
    return "sample 0: ranks 11/0 break the bound 11"


def _corrupt_ambient_rank_12(doc):
    doc["payload"]["samples"][0]["ambient_rank"] = 12
    return None


def _corrupt_observed_min(doc):
    doc["payload"]["observed_restricted_ranks"]["min"] = 10
    return None


def _corrupt_observed_max(doc):
    doc["payload"]["observed_restricted_ranks"]["max"] = 12
    return None


def _missed(reason):
    return pytest.mark.xfail(reason=f"{reason} (ROADMAP item 12)", strict=True)


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_sample_coordinate,
        _corrupt_lift_coordinate,
        pytest.param(
            _corrupt_restricted_rank,
            marks=_missed("the checker tests restricted_rank <= bound, not equality"),
        ),
        _corrupt_modulus,
        _corrupt_tangent_dim,
        _corrupt_ambient_rank_0,
        pytest.param(
            _corrupt_ambient_rank_12,
            marks=_missed("the checker tests ambient_rank <= n - 2, not equality"),
        ),
        pytest.param(
            _corrupt_observed_min,
            marks=_missed("the checker never reads observed_restricted_ranks"),
        ),
        pytest.param(
            _corrupt_observed_max,
            marks=_missed("the checker never reads observed_restricted_ranks"),
        ),
    ],
    ids=[
        "sample-coordinate",
        "lift-coordinate",
        "restricted-rank-0",
        "reducible-modulus",
        "tangent-dim",
        "ambient-rank-0",
        "ambient-rank-12",
        "observed-min",
        "observed-max",
    ],
)
def test_checker_rejects_corrupted_certify_15_gf81(corrupt):
    _assert_judged_wrong("certify_15_gf81", corrupt)


def _corrupt_c_i(doc):
    doc["payload"]["c"][1] = [2]  # c = (1, 1, 0, 0) solves; (1, 2, 0, 0) does not
    return "block solution does not solve the weighted system"


def _corrupt_lift_block(doc):
    # the lift is c_1 = 1 eight times, c_2 = 1 four times, then c_3 = c_4 = 0;
    # the first block is rewritten as c_3
    doc["payload"]["lift"][:8] = [[0]] * 8
    return "lift is not on the quadric"


def _corrupt_lift_order(doc):
    # the blocks in reverse order: the same power sums and distinct values
    doc["payload"]["lift"].reverse()
    return None


def _corrupt_expected_s1(doc):
    doc["payload"]["reports"][0]["report"]["expected_s1"] = [1, 0]
    return "borel report 0: predicted sums are wrong"


@pytest.mark.parametrize(
    "stem, corrupt",
    [
        ("solve_15_3", _corrupt_c_i),
        ("construct_15_3", _corrupt_lift_block),
        pytest.param(
            "construct_15_3",
            _corrupt_lift_order,
            marks=_missed("the checker does not compare the lift with c_i repeated 2^m_i times"),
        ),
        ("borel_10_gf25", _corrupt_expected_s1),
    ],
    ids=["solve-c_i", "construct-lift-block", "construct-lift-order", "borel-expected-s1"],
)
def test_checker_rejects_corrupted_golden_certificate(stem, corrupt):
    _assert_judged_wrong(stem, corrupt)
