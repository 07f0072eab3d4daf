"""Every committed BENCH_*.json (`tests/_paired.py`) backs what it claims.

Each file holds paired perfbench runs of a base and a change. This checks
its keys, that every run judged its outputs correct and measured every
end-to-end metric of BENCHMARK.json, that the base and the change took turns
going first, that each claimed series has at least MIN_CLAIM_PAIRS pairs,
and that each summary's medians, quartiles and counts are those of its
pairs.
"""

import json
import statistics

import pytest

from _paired import MIN_CLAIM_PAIRS, ROOT, SIDES

FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
KEYS = {"base", "change", "control", "command", "machine", "claims", "series"}


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
