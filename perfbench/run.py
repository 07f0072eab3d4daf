"""quadcert benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the repository root (standard library only):

    python3 perfbench/run.py --workload certify-gap --seed 1 --seconds 30 --trace 0

Workloads are described in workloads.py; metrics and their bounds are in
BENCHMARK.json. One client sends requests in a closed loop (the next
request goes out when the previous one returns) to `quadcert.cli.main`,
in-process, from one child process per run. The seed fixes the requests;
--seconds fixes how many there are, never the clock, so two commits measured
with the same arguments do the same work.

With --trace 0 the invocation makes RUNS runs of the same requests, each in
a fresh process, and reports:

    setup_s      child start until quadcert.cli is imported; median over
                 every child started, with set-up children between the runs
    run_s        time of one run with each request at its median time over
                 the RUNS runs (the sum of the per-request median times)
    req_p50_ms   median and 90th percentile of the request times pooled
    req_p90_ms   over the RUNS runs (RUNS x requests samples; at 30 s a
                 run, at least 10 lie beyond the 90th percentile)
    peak_rss_mib median over runs of the child's ru_maxrss
    ok_ratio     1 - failed / attempted, over every request issued

Times are at reference speed. On 2 shared vCPUs the machine runs a whole
process up to 1.7 times slower for seconds to minutes at a time. A child
times a probe (child.probe, a fixed reference kernel, with the garbage
collector off) after each request. A request's time is multiplied by
PROBE_REF_S / (the median of the probes after the previous request, this one
and the next), and each child's set-up time by PROBE_REF_S / (the median
of three probes the child times right after its import). The probe is benchmark code, so a change to quadcert moves the
scaled times by the same share as the raw ones. A request's time is its
median over the runs, not its minimum, which would favour the runs whose
probes read too slow. The comment lines give each run's median probe and
the unscaled figures.

With --trace 1 it makes two untraced and two traced runs (tracing.py) and
reports self times per layer (raw seconds, mean over the traced runs),
counts (they repeat exactly), the traced run time and the tracing overhead
(traced minus untraced run time, each over two runs) and
the share of the traced runs' raw time that the self times cover. Spans go
to perfbench/out/.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. The exit code is 1 when an output check fails, 2 when there is no
quadcert source to measure and 3 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import MODULES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")
RUNS = 3
SETUPS_PER_RUN = 5
# child.probe() time that defines reference speed: its fast value on 2
# shared vCPUs, Python 3.11.
PROBE_REF_S = 0.33e-3
DEADLINE_S = 170.0
# Sizes a run: seconds * RATE / RUNS requests, roughly the requests per
# second at the seed commit on 2 shared vCPUs. At 30 s the certify workloads
# get 35 requests a run, so their 105 pooled request times put 11 beyond the
# 90th percentile; cli-mix gets 800. Three runs of many requests vary less
# over seeds than five runs of fewer.
RATE = {"certify-gap": 3.5, "certify-gf625": 3.5, "cli-mix": 80.0}


class ChildError(RuntimeError):
    pass


def _child(job: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on job; returns its result and its start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out: {job}") from exc
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), started


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def load_json(path: str) -> dict:
    """The file's JSON object, or {} when it does not exist."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Every child run of one invocation, with set-up times, in run order.
    Each run issues the same requests; set-up children are spread between
    the runs so that their median covers the whole invocation."""
    deadline = time.monotonic() + DEADLINE_S
    count = max(1, round(seconds * RATE[workload] / RUNS))
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, f"trace-{workload}-seed{seed}-run{i}.jsonl") for i in (1, 2)]
        plan = [None, *paths, None]  # two untraced runs around two traced ones
    else:
        plan = [None] * RUNS
    setups, runs = [], []
    for path in plan:
        for _ in range(SETUPS_PER_RUN):
            res, started = _child({"setup_only": True}, deadline)
            setups.append((res["imported_at"] - started, res["probe_s"]))
        res, started = _child({"workload": workload, "seed": seed, "count": count, "trace": path}, deadline)
        setups.append((res["imported_at"] - started, res["probe_s"]))
        res["traced"] = path is not None
        runs.append(res)
    return {"count": count, "setups": setups, "runs": runs}


def judge_runs(workload: str, seed: int, count: int, runs: list[dict], baseline: dict) -> list[str]:
    """Problems found in the records; any request whose bytes differ between
    runs or from the digest committed for the baseline seed. At the
    committed seed and request count, a failing request that baseline.json
    does not list among the known budget failures is a problem too."""
    expected = baseline.get("golden", {}).get(workload, {})
    committed = seed == baseline.get("committed_seed") and count == baseline.get("requests", {}).get(workload)
    known = set(baseline.get("budget_failures", {}).get(workload, ()))
    problems = []
    for res in runs:
        for rec, first in zip(res["records"], runs[0]["records"]):
            key = rec["key"]
            problems += [f"{key}: {p}" for p in rec["problems"]]
            if rec["digest"] != first["digest"]:
                problems.append(f"{key}: output bytes differ between runs")
            if key in expected and expected[key] != rec["digest"]:
                problems.append(f"{key}: certificate bytes differ from the committed digest")
            if committed and rec["failed"] and key not in known:
                problems.append(f"{key}: fails, but is not a known budget failure of the committed seed")
    return problems


def speed_factors(res: dict) -> list[float]:
    """What each request's time in a run is multiplied by to bring it to
    reference speed: PROBE_REF_S over the median of the probes timed after
    the previous request, this one and the next."""
    probes = [rec["probe_s"] for rec in res["records"]]
    return [PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 2]) for i in range(len(probes))]


def run_probe_s(res: dict) -> float:
    return statistics.median(rec["probe_s"] for rec in res["records"])


def run_times(res: dict, scaled: bool = True) -> list[float]:
    """The run's request times, at reference speed unless scaled is false."""
    if not scaled:
        return [rec["s"] for rec in res["records"]]
    return [rec["s"] * f for rec, f in zip(res["records"], speed_factors(res))]


def request_times(runs: list[dict], scaled: bool = True) -> list[float]:
    """Each request's median time over the runs."""
    return [statistics.median(times) for times in zip(*(run_times(res, scaled) for res in runs))]


def setup_s(m: dict, scaled: bool = True) -> float:
    return statistics.median(s * PROBE_REF_S / p if scaled else s for s, p in m["setups"])


def latency(runs: list[dict], scaled: bool = True) -> dict:
    latencies_ms = [t * 1e3 for res in runs for t in run_times(res, scaled)]
    return {
        "run_s": sum(request_times(runs, scaled)),
        "req_p50_ms": statistics.median(latencies_ms),
        "req_p90_ms": _quantile(latencies_ms, 0.90),
    }


def command_shares(runs: list[dict]) -> dict:
    """Each command's share of run_s."""
    shares: dict[str, float] = {}
    times = request_times(runs)
    total = sum(times)
    for rec, t in zip(runs[0]["records"], times):
        command = rec["key"].split()[0]
        shares[command] = shares.get(command, 0.0) + t / total
    return shares


def end_to_end(m: dict) -> dict:
    runs = m["runs"]
    records = [rec for res in runs for rec in res["records"]]
    return {
        "setup_s": setup_s(m),
        **latency(runs),
        "peak_rss_mib": statistics.median(res["peak_rss_mib"] for res in runs),
        "ok_ratio": 1.0 - sum(rec["failed"] for rec in records) / len(records),
    }


def per_layer(m: dict, names: list[str]) -> dict:
    traced = [res for res in m["runs"] if res["traced"]]
    plain = [res for res in m["runs"] if not res["traced"]]
    self_s: dict[str, float] = {}
    for res in traced:
        for name, value in res["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value / len(traced)
    counts = traced[0]["counts"]  # the same requests in every run: counts repeat exactly
    traced_s = sum(request_times(traced))
    pair_calls = counts.get("quadric.complete_pair.calls", 0)
    points = counts.get("quadric.sample.calls", 0) - counts.get("quadric.sample.no_point", 0)
    derived = {
        "quadric.sample.yield": points / pair_calls if pair_calls else 0.0,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - sum(request_times(plain)),
        "trace.coverage": sum(self_s.values()) / statistics.mean(sum(r["s"] for r in res["records"]) for res in traced),
    }
    for module in MODULES:
        derived[f"module.{module}.s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "quadcert", "cli.py")):
        sys.stderr.write(f"no quadcert source under {ROOT}/src; nothing to measure\n")
        return 2
    spec = load_json(BENCHMARK)
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 3
    problems = judge_runs(args.workload, args.seed, m["count"], m["runs"], load_json(BASELINE))
    names = [x["name"] for x in metrics_spec]
    values = per_layer(m, names) if args.trace else end_to_end(m)
    records = [rec for res in m["runs"] for rec in res["records"]]
    attempted = len(records)
    failed = sum(rec["failed"] for rec in records)
    plain = [res for res in m["runs"] if not res["traced"]]
    print(f"# {args.workload} seed {args.seed}: {len(m['runs'])} runs of the same {m['count']} requests, "
          f"{attempted} issued, {failed} failed; latency percentiles over "
          f"{sum(len(res['records']) for res in plain)} pooled request times; {len(m['setups'])} set-ups; "
          f"median probe per run "
          f"{', '.join(format(run_probe_s(res) * 1e3, '.4f') for res in m['runs'])} ms "
          f"(reference {PROBE_REF_S * 1e3:g} ms)")
    raw = {"setup_s": setup_s(m, scaled=False), **latency(plain, scaled=False)}
    print("# unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    shares = command_shares(plain)
    if len(shares) > 1:
        print("# share of run_s by command: " + ", ".join(f"{c} {v:.3f}" for c, v in sorted(shares.items())))
    for x in metrics_spec:
        print(f"# {x['name']:34s} {values[x['name']]:.6g} {x['unit']}")
    for p in problems[:20]:
        sys.stderr.write(f"output check failed: {p}\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in metrics_spec},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
