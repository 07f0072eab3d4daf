"""Paired benchmark runs of two revisions, written to one BENCH_<N>.json.

Run from the repository root (standard library only):

    python3 tests/_paired.py OUT [--base REV] [--change REV] [--control]
        [--pairs K] [--claim WORKLOAD:SEED:METRIC ...]
        WORKLOAD:SEED ...

It exports fresh copies of two revisions with `git archive`, the base (REV,
default HEAD) and the change (REV, default the working tree, untracked files
that git does not ignore included), into a temporary directory. With
--control the change is a second copy of the base, so the pairs show how far
two copies of one tree read apart. For each WORKLOAD:SEED series it runs

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0

with S the run_seconds of BENCHMARK.json, in both copies with
PYTHONDONTWRITEBYTECODE=1, K times each, as K pairs; the base goes first in
the even pairs and the change in the odd ones. OUT gets the revisions, the
machine, each run's result line (the last line that run.py prints) and, per
series and end-to-end metric, the two medians, the base's quartiles and in
how many pairs the change read lower. A claim names the series and metric
that a change says it improves; tests/test_bench.py checks, in Tier-1, that
every committed BENCH_*.json has at least MIN_CLAIM_PAIRS pairs in each
claimed series, every run correct, a summary that matches its pairs, and
every claim met: better in nine tenths of the pairs, by more than the
base's quartile distance.

The exit status is 1 when some run is not `correct: true` (OUT is written
all the same), and 0 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CLAIM_PAIRS = 10
SIDES = ("base", "change")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def git(*args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def tree_of(rev):
    """(description, tree id) of a revision, or of the working tree for None.
    The working tree is staged in a scratch index, so the real index is left
    as it is."""
    if rev is not None:
        commit = git("rev-parse", "--verify", rev + "^{commit}")
        return commit, git("rev-parse", commit + "^{tree}")
    with tempfile.TemporaryDirectory(prefix="quadcert-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "-A", env=env)
        return "working tree on " + git("rev-parse", "HEAD"), git("write-tree", env=env)


def export(tree: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(copy: Path, workload: str, seed: int) -> dict:
    """The result line of one perfbench run in `copy`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # run.py finds the copy's own src/
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: an output check failed
        raise SystemExit(f"{' '.join(argv[1:])} in {copy} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(pairs: list) -> dict:
    """Per metric: both medians, the base's quartiles (inclusive method) and
    the number of pairs in which the change read lower."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base, change = ([p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES)
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
        out[name] = {
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "base_quartiles": [q1, q3],
            "change_lower": sum(c < b for b, c in zip(base, change)),
        }
    return out


def series_spec(text: str):
    workload, _, seed = text.partition(":")
    return workload, int(seed)


def claim_spec(text: str) -> dict:
    workload, seed, metric = text.split(":")
    return {"workload": workload, "seed": int(seed), "metric": metric}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("series", nargs="+", type=series_spec, metavar="WORKLOAD:SEED")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", default=None, help="a revision; the working tree if not given")
    parser.add_argument("--control", action="store_true", help="run the base against a copy of itself")
    parser.add_argument("--pairs", type=int, default=MIN_CLAIM_PAIRS)
    parser.add_argument("--claim", type=claim_spec, action="append", default=[], metavar="WORKLOAD:SEED:METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    series = [{"workload": w, "seed": s} for w, s in args.series]
    for claim in args.claim:
        if {"workload": claim["workload"], "seed": claim["seed"]} not in series:
            parser.error(f"claim {claim} names no series")
    base = tree_of(args.base)
    change = base if args.control else tree_of(args.change)
    doc = {
        "base": {"revision": base[0], "tree": base[1]},
        "change": {"revision": change[0], "tree": change[1]},
        "control": args.control,
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "claims": args.claim,
        "series": series,
    }
    with tempfile.TemporaryDirectory(prefix="quadcert-paired-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        export(base[1], copies["base"])
        export(change[1], copies["change"])
        for entry in series:
            entry["pairs"] = []
            for index in range(args.pairs):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(copies[side], entry["workload"], entry["seed"])
                entry["pairs"].append(pair)
                print(entry["workload"], entry["seed"], index, *(
                    f"{side} run_s {pair[side]['metrics']['run_s']['value']:.4f}" for side in SIDES), flush=True)
            entry["summary"] = summarize(entry["pairs"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    runs = [p[side] for entry in series for p in entry["pairs"] for side in SIDES]
    return 0 if all(run["correct"] is True for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
