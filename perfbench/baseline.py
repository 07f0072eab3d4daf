"""Write perfbench/baseline.json: what the benchmark pins for the seed commit.

Usage, from the repository root:

    python3 perfbench/baseline.py               # measure the pins below
    python3 perfbench/baseline.py --spread FILE  # store spread.py --out numbers

At the committed seed and BENCHMARK.json's run_seconds it records

- golden: a digest of every certificate (exit code and stdout bytes) of the
  certify workloads, which run.py compares on every later run;
- requests: the number of requests in one run of each workload;
- budget_failures: the requests the solver refuses with its search budget
  (exit 4), kept in the draw and counted as failed; run.py rejects any
  other failure at the committed seed and request count;
- command_share: each command's share of run_s on cli-mix, which must stay
  at most one half;
- counts: per-layer counts of one run, which repeat exactly;
- traced: every per-layer metric of the traced invocation.

With --spread it only stores each workload's per-metric medians and
quartiles over seeds, from spread.py, as the seed commit's numbers.
"""

from __future__ import annotations

import argparse
import json

import run

COMMITTED_SEED = 1
COUNTS = (
    "compression.jacobian.entries",
    "linalg.rows_in",
    "quadric.complete_pair.calls",
    "quadric.sample.no_point",
    "trace_system.solve.ext_field",
    "trace_system.solve.budget_errors",
    "cli.emit.bytes",
)


def pins(seconds: int) -> dict:
    """Golden digests, budget failures, exact counts and the traced numbers
    at the committed seed."""
    out = {"requests": {}, "golden": {}, "budget_failures": {}, "command_share": {}, "counts": {}, "traced": {}}
    names = [m["name"] for m in run.load_json(run.BENCHMARK)["per_layer"]]
    for workload in run.WORKLOADS:
        plain = run.measure(workload, COMMITTED_SEED, seconds, False)
        problems = run.judge_runs(workload, COMMITTED_SEED, plain["count"], plain["runs"], {})
        if problems:
            raise SystemExit(f"{workload}: outputs fail their checks: {problems[:5]}")
        records = plain["runs"][0]["records"]
        out["requests"][workload] = plain["count"]
        if workload.startswith("certify"):
            out["golden"][workload] = {rec["key"]: rec["digest"] for rec in records}
        if workload == "cli-mix":
            shares = run.command_shares(plain["runs"])
            if max(shares.values()) > 0.5:
                raise SystemExit(f"cli-mix: one command takes more than half of the run: {shares}")
            out["command_share"][workload] = shares
        failures = [rec["key"] for rec in records if rec["failed"]]
        if failures:
            out["budget_failures"][workload] = failures
        layer = run.per_layer(run.measure(workload, COMMITTED_SEED, seconds, True), names)
        out["counts"][workload] = {name: layer[name] for name in COUNTS}
        out["traced"][workload] = layer
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spread", nargs="*", default=[])
    args = parser.parse_args()
    base = run.load_json(run.BASELINE)
    if args.spread:
        for path in args.spread:
            with open(path, encoding="utf-8") as fh:
                for workload, data in json.load(fh).items():
                    base.setdefault("seed_commit", {})[workload] = data["summary"]
    else:
        seconds = run.load_json(run.BENCHMARK)["run_seconds"]
        base.update(committed_seed=COMMITTED_SEED, run_seconds=seconds, **pins(seconds))
    with open(run.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(base, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
