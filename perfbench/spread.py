"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads cli-mix --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median of the per-seed values, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json, and each
invocation's wall time. --out writes the per-seed results (with run.py's
comment lines: probe times, unscaled figures, cli-mix command shares) and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCHMARK, ROOT, load_json


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="certify-gap,certify-gf625,cli-mix")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = load_json(BENCHMARK)
    metrics = spec["end_to_end"]
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            wall = time.monotonic() - started
            lines = proc.stdout.splitlines()
            comments = [line for line in lines if line.startswith("#")]
            results.append({"seed": seed, "wall_s": wall, "comments": comments, **json.loads(lines[-1])})
            print(workload, seed, f"wall {wall:.1f} s",
                  {k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()}, flush=True)
        summary = {}
        for m in metrics:
            summary[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r in results])
            s = summary[m["name"]]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:14s} {m['name']:34s} median {s['median']:.6g} {m['unit']}  "
                  f"IQR/median {spread}  bound {m['bound']}", flush=True)
        report[workload] = {"runs": results, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
