"""The benchmark's seed-1 requests reproduce their pinned output bytes.

Each workload's requests (`perfbench/workloads.requests`, read without
installing anything) go through `quadcert.cli.main` in this process, and one
sha256 runs over `f"{code}\\0{stdout}\\0{stderr}\\0"` per request, in order.
The first 16 hex digits are pinned: a speed-up must leave every byte of every
certificate, refusal and error message as it was. A deliberate change of
output re-pins them, listing the old and the new digests.
"""

import contextlib
import hashlib
import io

import pytest

from _perfbench import perfbench_module
from quadcert.cli import main

# (workload, request count, digest)
DIGESTS = (
    ("cli-mix", 800, "ce3342645f1a9242"),
    ("certify-gap", 35, "d8e41ff21140fec4"),
    ("certify-gf625", 35, "9c3244635063a557"),
)


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))  # every refusal returns its exit code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload, count, expected", DIGESTS)
def test_seed_1_workload_digest(workload, count, expected):
    requests = perfbench_module("workloads").requests(workload, 1, count)
    h = hashlib.sha256()
    for req in requests:
        code, out, err = _call(req.argv)
        h.update(f"{code}\0{out}\0{err}\0".encode())
    assert h.hexdigest()[:16] == expected
