"""A pinned catalogue of mutations and the tests that must catch them.

Each entry names a file under src/, an exact piece of its text, the text
that replaces it, and the pytest ids that must fail once it is replaced.
A known survivor also carries the reason it survives, and the ROADMAP item
that will make the tests catch it.

Run the catalogue from the repository root with

    python3 tests/_mutants.py [NAME ...]

For each entry (or each named one) it copies src/, tests/, perfbench/ and
pyproject.toml to a temporary directory, applies the entry there, runs only
that entry's tests against the copy and prints caught or survived. It never
writes the working tree. A run that exceeds TIMEOUT seconds counts as
caught: a mutated rejection filter can leave a draw looking for an output
forever. The exit status is 0 when every entry ends as listed.

`tests/test_mutants.py` checks, in Tier-1, that each entry's text still
occurs exactly once in its file and that each listed test exists, so code
that moves takes its entries along.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest ids that must fail
    survivor: Optional[str] = None  # why the tests do not catch it yet


RNG = "tests/test_rng.py::"
HALF = 2**63 + 1  # a bound that rejects about half of the raw outputs
RARE = 2**54 + 1  # a bound that rejects about one raw output in 2^10

MUTANTS = (
    Mutant(
        "rng-filter-dropped",
        "src/quadcert/rng.py",
        "return [w % n for w in words[::2] if w < limit]",
        "return [w % n for w in words[::2]]",
        (
            f"{RNG}test_below_stream_pin[{HALF}]",
            f"{RNG}test_rejection_consumes_extra_outputs",
            f"{RNG}test_batched_draw_matches_single_draws[{RARE}]",
            f"{RNG}test_a_rejecting_draw_over_three_passes_matches_the_reference_loop",
        ),
    ),
    Mutant(
        "rng-filter-inverted",
        "src/quadcert/rng.py",
        "return [w % n for w in words[::2] if w < limit]",
        "return [w % n for w in words[::2] if w >= limit]",
        (
            f"{RNG}test_below_stream_pin[{HALF}]",
            f"{RNG}test_batched_draw_matches_single_draws[{HALF}]",
        ),
    ),
    Mutant(
        "rng-pass-asks-for-count",
        "src/quadcert/rng.py",
        "self._lanes(n, limit, min(count - len(out), LANES))",
        "self._lanes(n, limit, min(count, LANES))",
        (
            f"{RNG}test_batched_draw_matches_single_draws[31]",
            f"{RNG}test_batched_draw_matches_single_draws[{RARE}]",
            f"{RNG}test_a_rejecting_draw_over_three_passes_matches_the_reference_loop",
        ),
    ),
    Mutant(
        "rng-byteswap-deleted",
        "src/quadcert/rng.py",
        "            words.byteswap()\n",
        "            pass\n",
        tuple(
            f"{RNG}test_lane_pass_reads_words_on_a_big_endian_machine[{count}]"
            for count in (5, 64, 1024)
        ),
    ),
    Mutant(
        "gf-table-step-squares",
        "src/quadcert/gf.py",
        "x = mul(x, g)",
        "x = mul(x, x)",
        (
            "tests/test_gf.py::test_exp_and_log_are_inverse_bijections[3-4]",
            "tests/test_gf.py::test_exp_and_log_are_inverse_bijections[7-1]",
            "tests/test_gf.py::test_table_products_match_field_products[5-3]",
        ),
    ),
    Mutant(
        "faithfulness-witness-always-true",
        "src/quadcert/compression.py",
        "    return v123 != v143\n",
        "    return True\n",
        (
            "tests/test_compression.py::test_faithfulness_witness_pin",
            "tests/test_acceptance.py::test_acceptance_7_faithfulness_witness",
        ),
        survivor="the witness cannot fail on a point with distinct coordinates (ROADMAP item 2)",
    ),
    Mutant(
        "generator-row-check-removed",
        "src/quadcert/compression.py",
        "    if failed:\n        raise JacobianIdentityError(",
        "    if False:\n        raise JacobianIdentityError(",
        ("tests/test_compression.py::test_wrong_generator_row_raises",),
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the entry's text in the copy of its file under root."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text is not in {mutant.file} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """'caught', 'caught (timed out)' or 'survived' for one entry."""
    with tempfile.TemporaryDirectory(prefix="quadcert-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
        for name in COPIED:
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "caught (timed out)"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # some test failed
        return "caught"
    raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such entries: {', '.join(sorted(unknown))}")
    unexpected = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        caught = outcome.startswith("caught")
        if mutant.survivor is None:
            note = "" if caught else "  UNEXPECTED"
        else:
            note = f"  known survivor: {mutant.survivor}" if not caught else "  (listed as a survivor)"
        unexpected += caught == (mutant.survivor is not None)
        print(f"{mutant.name}: {outcome}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
