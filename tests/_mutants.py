"""A pinned catalogue of mutations and the tests that must catch them.

Each entry names a file under src/, an exact piece of its text, the text
that replaces it, and the pytest ids that must fail once it is replaced.
A known survivor also carries the reason it survives, and the ROADMAP item
that will make the tests catch it.

Run the catalogue from the repository root with

    python3 tests/_mutants.py [NAME ...]

For each entry (or each named one) it copies src/, tests/, perfbench/,
pyproject.toml and README.md (which tests/test_docs.py runs) to a temporary
directory, applies the entry there, runs only that entry's tests against the
copy and prints caught or survived. It never writes the working tree. A run
that exceeds TIMEOUT seconds counts as caught: a mutated rejection filter can
leave a draw looking for an output forever. The exit status is 0 when every
entry ends as listed.

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
GF = "src/quadcert/gf.py"
QUADRIC = "src/quadcert/quadric.py"
CLI = "src/quadcert/cli.py"
LINALG = "src/quadcert/linalg.py"
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
    Mutant(
        "sums-width-one-bit-short",
        GF,
        "w = (n * self.k * (self.p - 1) ** 2).bit_length()",
        "w = (n * self.k * (self.p - 1) ** 2).bit_length() - 1",
        (
            "tests/test_kernels.py::test_sums_count_repeated_codes_like_multiplicities[3-12]",
            "tests/test_quadric.py::test_sums_at_the_widest_packing[3-12-500]",
            "tests/test_quadric.py::test_sums_on_the_4095_coordinate_lift",
        ),
    ),
    Mutant(
        "sums-square-sum-one-digit-short",
        GF,
        "self._reduce(s2, w, 2 * self.k - 1)",
        "self._reduce(s2, w, 2 * self.k - 2)",
        (
            "tests/test_cli.py::test_sample_extension_field",
            "tests/test_compression.py::test_rank_certificate_divisible_case",
        ),
    ),
    Mutant(
        "sums-width-ignores-multiplicities",
        GF,
        "n = len(codes) if mults is None else sum(mults)",
        "n = len(codes)",
        (
            "tests/test_kernels.py::test_sums_take_any_integer_multiplicity[7-1]",
            "tests/test_trace_system.py::test_evaluate_system_matches_element_oracle",
            "tests/test_golden.py::test_golden_certificate[solve_199_199]",
        ),
    ),
    Mutant(
        "sums-multiplicity-dropped-from-s1",
        GF,
        "return self._reduce(sum(weighted), w, self.k)",
        "return self._reduce(sum(packed), w, self.k)",
        (
            "tests/test_kernels.py::test_sums_count_repeated_codes_like_multiplicities",
            "tests/test_cli.py::test_solve_pin",
            "tests/test_trace_system.py::test_evaluate_system_matches_element_oracle",
        ),
    ),
    Mutant(
        # the square root of zero then enters Tonelli-Shanks, which raises
        # after m squarings, so the sqrt test fails at once, as does the
        # inverse pin; a full Tier-1 still stalls, since every sampler try
        # fails and a failing search over GF(3^12) runs 64 q tries, hours
        "is-zero-inverted",
        GF,
        "        return not self.packed\n",
        "        return bool(self.packed)\n",
        (
            "tests/test_gf.py::test_prime_field_inverse_pins",
            "tests/test_gf.py::test_sqrt_raises_on_a_zero_past_is_zero",
        ),
    ),
    Mutant(
        # with the cap gone, a zero past is_zero squares t = 0 forever; the
        # test's alarm fails it after 10 s
        "sqrt-cap-removed",
        GF,
        "                if i == m:\n                    raise ArithmeticError",
        "                if False:\n                    raise ArithmeticError",
        ("tests/test_gf.py::test_sqrt_raises_on_a_zero_past_is_zero",),
    ),
    Mutant(
        "lane-index-one-lane-high",
        GF,
        "self.packed >> stride * i &",
        "self.packed >> stride * (i + 1) &",
        (
            "tests/test_kernels.py::test_lane_indexing_matches_iteration",
            "tests/test_linalg.py::test_kernel_pin",
            "tests/test_actions.py::test_structural_ranks_match_elimination[3-4-9]",
        ),
    ),
    Mutant(
        "elimination-update-adds",
        LINALG,
        "rows[i] = row - prow * c",
        "rows[i] = row + prow * c",
        (
            "tests/test_linalg.py::test_rank_pins",
            "tests/test_linalg.py::test_fast_paths_agree_with_generic",
            "tests/test_compression.py::test_structured_certificate_matches_elimination[3-4-15]",
        ),
    ),
    Mutant(
        "pivot-scan-from-row-0",
        LINALG,
        "for i in range(pr, len(rows)) if rows[i][col]",
        "for i in range(len(rows)) if rows[i][col]",
        (
            "tests/test_linalg.py::test_rref_form",
            "tests/test_linalg.py::test_rank_of_transpose",
            "tests/test_kernels.py::test_tangent_basis_is_the_echelon_kernel[3-4-9]",
        ),
    ),
    Mutant(
        "small-diagonal-skips-last-coordinate",
        QUADRIC,
        "return a.codes.count(a.codes[0]) == a.n",
        "return a.codes[:-1].count(a.codes[0]) == a.n - 1",
        (
            "tests/test_quadric.py::test_small_diagonal_checks_every_coordinate",
            "tests/test_actions.py::test_stabilizer_dichotomy_exhaustive",
        ),
    ),
    Mutant(
        "pair-against-tail-collision-dropped",
        QUADRIC,
        "if pair is None or pair[0] == pair[1] or not drawn.isdisjoint(pair):",
        "if pair is None or pair[0] == pair[1]:",
        (
            "tests/test_quadric.py::test_sampler_pin_and_determinism",
            "tests/test_cli.py::test_sample",
            "tests/test_acceptance.py::test_acceptance_4_sampler_vs_enumeration",
        ),
    ),
    Mutant(
        "try-sliced-one-code-late",
        QUADRIC,
        "tail = codes[start : start + width]",
        "tail = codes[start + 1 : start + width + 1]",
        (
            "tests/test_quadric.py::test_sampler_stream_matches_tail_first_oracle",
            "tests/test_quadric.py::test_sampler_stream_matches_oracle_when_a_try_spans_lane_passes",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        "batch-not-clipped-to-the-budget",
        QUADRIC,
        "tries = min(batch, left)",
        "tries = batch",
        (
            "tests/test_quadric.py::test_sampler_stream_matches_tail_first_oracle[5-7-1]",
            "tests/test_quadric.py::test_sampler_stream_matches_tail_first_oracle[15-31-1]",
        ),
    ),
    Mutant(
        "batch-cap-dropped",
        QUADRIC,
        "batch = min(2 * batch, most)",
        "batch = 2 * batch",
        ("tests/test_quadric.py::test_failing_search_draws_in_bounded_memory",),
    ),
    Mutant(
        "writer-point-rows-through-the-wrong-code",
        CLI,
        "value.ctx.coefficient_rows(distinct)",
        "value.ctx.coefficient_rows(distinct[::-1])",
        (
            "tests/test_quadric.py::test_point_to_json",
            "tests/test_kernels.py::test_point_round_trips",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        "writer-dataclass-field-skipped",
        CLI,
        "for f in dataclasses.fields(value)}",
        "for f in dataclasses.fields(value)[1:]}",
        (
            "tests/test_profile.py::test_decision_to_json",
            "tests/test_actions.py::test_report_to_json",
            "tests/test_golden.py::test_golden_certificate[check_15_3]",
        ),
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
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, root / name)
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
