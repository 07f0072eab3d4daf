"""Self-test of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

It checks that a tiny run prints every metric with its unit, that the
correctness gate rejects corrupted certificates and wrong exit codes, and
that the benchmark refuses to run without the quadcert source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import child
import run
import tracing
import workloads
from verify import judge
from workloads import Request

SPEC = run.load_json(run.BENCHMARK)


def _bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _certify_request() -> Request:
    return workloads.requests("certify-gap", 1, 1)[0]


class TinyRun(unittest.TestCase):
    def _check(self, workload: str, trace: int) -> None:
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn(f"# {m['name']}", proc.stdout)

    def test_every_end_to_end_metric_on_every_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 0)

    def test_every_per_layer_metric(self):
        self._check("cli-mix", 1)

    def test_per_layer_self_times_name_real_spans(self):
        spans = {name for _, _, name in tracing.SPANS}
        for m in SPEC["per_layer"]:
            name = m["name"]
            if name.endswith(".s") and not name.startswith(("module.", "trace.")):
                self.assertIn(name[:-2], spans)


class CorrectnessGate(unittest.TestCase):
    def test_certificate_passes_as_produced(self):
        req = _certify_request()
        code, out, err, _ = child.call(req.argv)
        self.assertEqual(judge(req, code, out, err), (False, []))

    def test_corrupted_point_fails(self):
        req = _certify_request()
        code, out, err, _ = child.call(req.argv)
        doc = json.loads(out)
        point = doc["payload"]["samples"][0]["point"]
        point[0] = [(point[0][0] + 1) % 3] + point[0][1:]
        _, problems = judge(req, code, json.dumps(doc), err)
        self.assertTrue(any("not on the quadric" in p for p in problems), problems)

    def test_rank_above_the_bound_fails(self):
        req = _certify_request()
        code, out, err, _ = child.call(req.argv)
        doc = json.loads(out)
        doc["payload"]["samples"][0]["restricted_rank"] = 12  # n - 3 on a divisible run
        _, problems = judge(req, code, json.dumps(doc), err)
        self.assertTrue(any("break the bound" in p for p in problems), problems)

    def test_wrong_exit_code_fails(self):
        req = Request(("construct", "15", "3"), 0, True)
        code, out, err, _ = child.call(req.argv)
        failed, problems = judge(req, 2, out, err)
        self.assertTrue(failed)
        self.assertTrue(problems)
        not_covered = Request(("check", "16", "3", "--degree", "1"), 2, False)
        code, out, err, _ = child.call(not_covered.argv)
        self.assertEqual(code, 2)
        self.assertTrue(judge(not_covered, 0, out, err)[1])

    def test_budget_refusal_fails_without_being_wrong(self):
        req = Request(("solve", "4095", "7"), 0, True)
        code, out, err, _ = child.call(req.argv)
        self.assertEqual(code, 4)
        self.assertEqual(judge(req, code, out, err), (True, []))

    def test_changed_bytes_fail_against_the_committed_digest(self):
        req = _certify_request()
        record = {"key": req.key, "digest": "0" * 24, "failed": False, "problems": []}
        golden = {"golden": {"certify-gap": {req.key: "1" * 24}}}
        problems = run.judge_runs("certify-gap", 1, 1, [{"records": [record]}], golden)
        self.assertEqual(len(problems), 1)
        again = dict(record, digest="2" * 24)
        problems = run.judge_runs("certify-gap", 1, 1, [{"records": [record]}, {"records": [again]}], {})
        self.assertEqual(problems, [f"{req.key}: output bytes differ between runs"])

    def test_unknown_failure_at_the_committed_seed_fails(self):
        base = {"committed_seed": 1, "requests": {"cli-mix": 800}, "budget_failures": {"cli-mix": ["solve 2035 11"]}}
        known = {"key": "solve 2035 11", "digest": "0", "failed": True, "problems": []}
        new = dict(known, key="construct 4095 7")
        self.assertEqual(run.judge_runs("cli-mix", 1, 800, [{"records": [known]}], base), [])
        problems = run.judge_runs("cli-mix", 1, 800, [{"records": [known, new]}], base)
        self.assertEqual(len(problems), 1)
        self.assertIn("construct 4095 7", problems[0])
        # other seeds and request counts draw other requests: no list to compare with
        self.assertEqual(run.judge_runs("cli-mix", 2, 800, [{"records": [known, new]}], base), [])
        self.assertEqual(run.judge_runs("cli-mix", 1, 12, [{"records": [known, new]}], base), [])


class Timing(unittest.TestCase):
    def test_times_are_medians_over_runs_at_reference_speed(self):
        ref = run.PROBE_REF_S
        runs = [{"records": [{"s": s, "probe_s": p}]} for s, p in ((2.0, ref), (3.0, 2 * ref), (0.2, ref))]
        self.assertEqual(run.request_times(runs), [1.5])
        self.assertEqual(run.request_times(runs, scaled=False), [2.0])

    def test_latency_percentiles_pool_the_runs(self):
        ref = run.PROBE_REF_S
        runs = [{"records": [{"s": s, "probe_s": ref}, {"s": 10 * s, "probe_s": ref}]} for s in (1.0, 2.0, 3.0)]
        got = run.latency(runs)
        self.assertEqual(got["run_s"], 2.0 + 20.0)
        self.assertEqual(got["req_p50_ms"], 1e3 * (3.0 + 10.0) / 2)

    def test_speed_factor_uses_the_probes_around_the_request(self):
        ref = run.PROBE_REF_S
        res = {"records": [{"s": 1.0, "probe_s": p} for p in (ref, 2 * ref, ref, 4 * ref)]}
        for got, want in zip(run.speed_factors(res), (1 / 1.5, 1.0, 0.5, 1 / 2.5)):
            self.assertAlmostEqual(got, want)


class Inputs(unittest.TestCase):
    def test_requests_follow_the_seed(self):
        for workload in workloads.WORKLOADS:
            a = workloads.requests(workload, 1, 40)
            self.assertEqual(a, workloads.requests(workload, 1, 40))
            self.assertNotEqual(a, workloads.requests(workload, 2, 40))

    def test_cli_mix_keeps_empty_locus_samples(self):
        reqs = workloads.requests("cli-mix", 1, 120)
        samples = [r for r in reqs if r.argv[0] == "sample"]
        empty = [r for r in samples if r.expect == 2]
        self.assertEqual(len(samples), 30)
        self.assertEqual(len(empty), 30 // workloads.EMPTY_SAMPLE_SHARE)
        for r in empty:
            self.assertGreater(int(r.argv[1]), int(r.argv[3]))


class Tracing(unittest.TestCase):
    def test_self_times_cover_the_request_and_uninstall_restores(self):
        import quadcert.cli
        import quadcert.compression

        original = quadcert.compression.rank
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code, _, _, elapsed = child.call(_certify_request().argv)
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(quadcert.compression.rank, original)
        self_s = tracer.self_times()
        self.assertGreater(sum(self_s.values()), 0.9 * elapsed)
        self.assertGreater(self_s["linalg.restricted_rank"], 0)
        self.assertEqual(tracer.counts["compression.jacobian.entries"], 15 * 14 * 13 * 15)
        roots = [s for s in tracer.spans if s[3] < 0]
        self.assertEqual([s[0] for s in roots], ["cli.main"])


class MissingSource(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        os.makedirs(os.path.join(run.HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, "out")) as tmp:
            shutil.copy(run.BENCHMARK, tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _bench("--workload", "certify-gap", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
