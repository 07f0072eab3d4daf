"""Every committed BENCH_*.json (`tests/_paired.py`) backs what it claims.

Each file holds paired perfbench runs of a base and a change. This checks
its keys, that every run judged its outputs correct and measured every
end-to-end metric of BENCHMARK.json, that the base and the change took turns
going first, that each claimed series has at least MIN_CLAIM_PAIRS pairs,
and that each summary's medians, quartiles and counts are those of its
pairs. Each claim must also be met (`claim_met`): the change reads better
in at least nine tenths of the pairs, ties counting for neither side, and
its median beats the base's by more than the distance between the base's
quartiles, "better" being the direction BENCHMARK.json gives the metric.
"""

import json
import statistics

import pytest

from _paired import MIN_CLAIM_PAIRS, ROOT, SIDES

FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
METRICS = set(BETTER)
KEYS = {"base", "change", "control", "command", "machine", "claims", "series"}


def claim_met(pairs: list, metric: str) -> bool:
    """Whether the pairs back a claim on `metric` (module docstring)."""
    base, change = ([p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES)
    sign = 1 if BETTER[metric] == "lower" else -1  # the gain, change against base
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    gap = sign * (statistics.median(base) - statistics.median(change))
    return 10 * wins >= 9 * len(pairs) and gap > q3 - q1


def _pairs(metric: str, base: list, change: list) -> list:
    """Pairs of runs that measured only `metric`."""
    return [
        {side: {"metrics": {metric: {"value": v}}} for side, v in zip(SIDES, values)}
        for values in zip(base, change)
    ]


def test_a_claim_must_win_nine_tenths_of_its_pairs_by_more_than_the_spread():
    base = [0.50, 0.51, 0.49, 0.50, 0.52, 0.50, 0.51, 0.49, 0.50, 0.50]
    faster = [b - 0.05 for b in base]
    assert claim_met(_pairs("run_s", base, faster), "run_s")
    # 8 of 10: the two last pairs are ties; 9 of 10 with the last one a loss
    assert not claim_met(_pairs("run_s", base, faster[:8] + base[8:]), "run_s")
    assert claim_met(_pairs("run_s", base, faster[:9] + [0.6]), "run_s")
    # every pair won, by less than the base's quartile distance
    assert not claim_met(_pairs("run_s", base, [b - 0.001 for b in base]), "run_s")
    # a metric that is better higher wins the other way round
    assert BETTER["ok_ratio"] == "higher"
    assert claim_met(_pairs("ok_ratio", faster, base), "ok_ratio")
    assert not claim_met(_pairs("ok_ratio", base, faster), "ok_ratio")


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_backs_its_claims(path):
    doc = json.loads(path.read_text())
    assert set(doc) == KEYS
    assert all(set(doc[side]) == {"revision", "tree"} for side in SIDES)
    assert doc["control"] == (doc["base"] == doc["change"])
    assert not (doc["control"] and doc["claims"])  # a control claims nothing
    for entry in doc["series"]:
        assert set(entry) == {"workload", "seed", "pairs", "summary"}
        pairs = entry["pairs"]
        assert [p["first"] for p in pairs] == [SIDES[i % 2] for i in range(len(pairs))]
        for run in (p[side] for p in pairs for side in SIDES):
            assert run["correct"] is True and set(run["metrics"]) == METRICS
        assert set(entry["summary"]) == METRICS
        for name, summary in entry["summary"].items():
            base, change = ([p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES)
            q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
            assert summary == {
                "base_median": statistics.median(base),
                "change_median": statistics.median(change),
                "base_quartiles": [q1, q3],
                "change_lower": sum(c < b for b, c in zip(base, change)),
            }
    for claim in doc["claims"]:
        (entry,) = [e for e in doc["series"] if (e["workload"], e["seed"]) == (claim["workload"], claim["seed"])]
        assert claim["metric"] in METRICS
        assert len(entry["pairs"]) >= MIN_CLAIM_PAIRS
        assert claim_met(entry["pairs"], claim["metric"]), claim
