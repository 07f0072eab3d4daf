"""One benchmark run in a fresh process.

Usage: child.py JOB_JSON. The job is {"setup_only": true} or
{"workload", "seed", "count", "trace": path or null}. The child imports
quadcert.cli first and reports when the import finished (CLOCK_MONOTONIC,
which the parent shares) and the median of three probes (a fixed reference
kernel) timed right after, which bring its set-up time to reference speed.
A run then issues its requests one after another through
`quadcert.cli.main`, in-process, with stdout and stderr captured. Each
output is checked after its request's timer stops, and a probe is timed
after each request. The result is one JSON line on stdout.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import quadcert.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from tracing import Tracer  # noqa: E402
from verify import judge  # noqa: E402
from workloads import requests  # noqa: E402


# A fixed chain of GF(5^4) products on plain lists: the same kind of work as
# quadcert's field arithmetic, but benchmark code that no change to the
# package can speed up or slow down.
_MODULUS = (2, 0, 0, 1, 1)


def probe() -> float:
    """Seconds the reference kernel takes right now, about 0.33 ms. The
    garbage collector is off while it runs, so the heap a request leaves
    behind cannot slow it."""
    gc.disable()
    start = time.perf_counter()
    a, b = [1, 2, 3, 4], [4, 3, 2, 1]
    for _ in range(60):
        prod = [0] * 7
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(6, 3, -1):
            c = prod[d] % 5
            for i in range(5):
                prod[d - 4 + i] -= c * _MODULUS[i]
        a = [x % 5 for x in prod[:4]]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def call(argv) -> tuple:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call. An
    exception escaping main is returned as its repr in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:24]


def run(job: dict) -> dict:
    reqs = requests(job["workload"], job["seed"], job["count"])
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    records = []
    for i, req in enumerate(reqs):
        if tracer:
            tracer.request = i
        code, out, err, elapsed = call(req.argv)
        probe_s = probe()
        failed, problems = judge(req, code, out, err)
        records.append({"key": req.key, "s": elapsed, "probe_s": probe_s, "code": code,
                        "digest": digest(code, out), "failed": failed, "problems": problems})
    if tracer:
        tracer.uninstall()
    # Certificates are byte-reproducible: the first request, repeated with
    # warm caches, must give the same bytes.
    code, out, _, _ = call(reqs[0].argv)
    if digest(code, out) != records[0]["digest"]:
        records[0]["problems"].append("repeating the request changed its output bytes")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "peak_rss_mib": maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10),
        "records": records,
    }
    if tracer:
        tracer.write(job["trace"])
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    result = {"imported_at": IMPORTED_AT, "probe_s": statistics.median(probe() for _ in range(3))}
    if not job.get("setup_only"):
        result.update(run(job))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
