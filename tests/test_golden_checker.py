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


CERTIFY_15 = next(case for case in CASES if case[0] == "certify_15_gf81")


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


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_sample_coordinate,
        _corrupt_lift_coordinate,
        pytest.param(
            _corrupt_restricted_rank,
            marks=pytest.mark.xfail(
                reason="the checker tests restricted_rank <= bound, not equality (ROADMAP item 12)",
                strict=True,
            ),
        ),
    ],
    ids=["sample-coordinate", "lift-coordinate", "restricted-rank-0"],
)
def test_checker_rejects_corrupted_certify_15_gf81(corrupt):
    stem, argv, code = CERTIFY_15
    doc = json.loads(_text(stem))
    expected = corrupt(doc)
    _, problems = _judge(argv, code, json.dumps(doc))
    assert problems
    if expected is not None:
        assert expected in problems
