"""Request generation for the three benchmark workloads.

Every request is a `quadcert` argument vector plus the exit code that an
independent restatement of the hypothesis gate predicts for it. Requests
depend only on (workload, seed, count), never on timing, so two commits
measured with the same seed receive byte-identical input.

Workloads (closed loop, one client):

- certify-gap: `certify 15 3 --field-degree 4` (p | n, GF(81), the table
  scalar path) followed by two `certify 15 31 --control` (GF(31), the prime
  path). The paper's gap experiment: restricted rank <= n - 4 against the
  control's n - 3. With one request type in three, neither latency
  percentile falls on the boundary between the two types' latencies.
- certify-gf625: `certify 10 5 --field-degree 4` (p | n) followed by two
  `certify 7 5 --field-degree 4 --control`. GF(625) is above the 256-element
  table limit, so elimination runs on FieldElement objects. The headline
  n = 15 takes about 6 s per sample on 2 shared vCPUs, too slow for enough
  latency samples in one run; n = 7 and n = 10 keep the same scalar path.
  10 has only two binary digits, so the hypothesis gate does not apply to
  either request type here (hypotheses_apply is false, no block solve runs);
  the divisible request still has the n - 4 rank bound. The block solve of
  a certify request is measured on certify-gap only. 15 is the smallest
  multiple of 5 inside the gate.
- cli-mix: stratified draws of check, solve, construct, sample (one sixth of
  them on an empty locus, n > q) and borel-check. No Jacobian runs here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("certify-gap", "certify-gf625", "cli-mix")
PRIMES = (3, 5, 7, 11, 13)
N_MAX = 4096
SIZE_LIMIT = 1 << 20  # largest field quadcert accepts

# Share of each command in a cli-mix run, by request count. Chosen so that
# no command takes more than half of run_s at the seed commit; the measured
# shares are in baseline.json (command_share), and run.py prints them.
MIX_WEIGHTS = (
    ("check", 0.20),
    ("solve", 0.20),
    ("construct", 0.15),
    ("sample", 0.25),
    ("borel-check", 0.20),
)
EMPTY_SAMPLE_SHARE = 6  # one sample request in six targets an empty locus


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: int  # exit code the gate restatement predicts
    applies: bool  # the gate restatement says the request is covered

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def gate_applies(n: int, p: int) -> bool:
    """The hypothesis gate, restated: p | n and n has at least four binary
    digits."""
    return n % p == 0 and bin(n).count("1") >= 4


def _applicable_pairs() -> list[tuple[int, int]]:
    return [(n, p) for n in range(5, N_MAX + 1) for p in PRIMES if gate_applies(n, p)]


APPLICABLE = _applicable_pairs()


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """count draws from [lo, hi), one uniform draw per equal-width stratum,
    so every run covers the whole range evenly."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _log_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return [int(math.exp(x)) for x in _stratified(rng, count, math.log(lo), math.log(hi + 1))]


def _field_for(rng: random.Random, n: int) -> str:
    """A field GF(p^k) with q = p^k >= n^2, so a distinct-coordinate point
    exists and the sampler finds one within a few tries."""
    choices = []
    for p in PRIMES:
        k = 1
        while p**k < n * n:
            k += 1
        if p**k <= SIZE_LIMIT:
            choices.append((p, k))
    p, k = rng.choice(choices)
    return f"{p}^{k}" if k > 1 else str(p)


def _certify(n: int, p: int, degree: int, seed: int, control: bool) -> Request:
    argv = ["certify", str(n), str(p), "--field-degree", str(degree), "--samples", "1", "--seed", str(seed)]
    if control:
        argv.append("--control")
    return Request(tuple(argv), 0, gate_applies(n, p))


def _cli_mix(rng: random.Random, count: int) -> list[Request]:
    counts = [int(count * w) for _, w in MIX_WEIGHTS]
    for i in range(count - sum(counts)):  # rounding remainder, first commands first
        counts[i % len(counts)] += 1
    out: list[Request] = []
    by_name = dict(zip((name for name, _ in MIX_WEIGHTS), counts))

    for x in _stratified(rng, by_name["check"], 5, N_MAX + 1):
        n, p, degree = int(x), rng.choice(PRIMES), rng.choice((1, 2))
        applies = gate_applies(n, p)
        out.append(Request(("check", str(n), str(p), "--degree", str(degree)), 0 if applies else 2, applies))

    for command in ("solve", "construct"):
        for x in _stratified(rng, by_name[command], 0, len(APPLICABLE)):
            n, p = APPLICABLE[int(x)]
            out.append(Request((command, str(n), str(p)), 0, True))

    n_sample = by_name["sample"]
    n_empty = n_sample // EMPTY_SAMPLE_SHARE
    for n in _log_sizes(rng, n_sample - n_empty, 5, 512):
        field = _field_for(rng, n)
        seed = rng.getrandbits(32)
        out.append(Request(("sample", str(n), "--field", field, "--seed", str(seed)), 0, True))
    for _ in range(n_empty):
        p = rng.choice(PRIMES)
        n = max(5, p + 1 + rng.randrange(8))  # n > q: no distinct-coordinate point
        seed = rng.getrandbits(32)
        out.append(Request(("sample", str(n), "--field", str(p), "--seed", str(seed)), 2, False))

    for n in _log_sizes(rng, by_name["borel-check"], 5, 128):
        field = _field_for(rng, n)
        seed = rng.getrandbits(32)
        argv = ("borel-check", str(n), "--field", field, "--seed", str(seed), "--samples", "2")
        out.append(Request(argv, 0, True))

    rng.shuffle(out)
    return out


def requests(workload: str, seed: int, count: int) -> list[Request]:
    """The count requests of one run. A longer run starts with the requests
    of a shorter one for the certify workloads."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-gap":
        return [
            _certify(15, 3, 4, rng.getrandbits(32), False)
            if i % 3 == 0
            else _certify(15, 31, 1, rng.getrandbits(32), True)
            for i in range(count)
        ]
    if workload == "certify-gf625":
        return [
            _certify(10, 5, 4, rng.getrandbits(32), False)
            if i % 3 == 0
            else _certify(7, 5, 4, rng.getrandbits(32), True)
            for i in range(count)
        ]
    if workload == "cli-mix":
        return _cli_mix(rng, count)
    raise ValueError(f"unknown workload {workload!r}")
