"""A pinned catalogue of mutations and the tests that must catch them.

Each entry names a file under src/, an exact piece of its text, the text
that replaces it, and the pytest ids that must fail once it is replaced.
A known survivor also carries the reason it survives, and the ROADMAP item
that will make the tests catch it.

Run the catalogue from the repository root with

    python3 tests/_mutants.py [NAME ...]

For each entry (or each named one) it copies src/, tests/, perfbench/,
pyproject.toml and README.md (which tests/test_docs.py runs) to a temporary
directory, applies the entry there, runs all of that entry's tests against
the copy and prints caught, survived, or partly caught with the listed ids
that passed. An entry is caught when every listed id fails; an id with no
parameters names a test function, and fails when one of its cases does. It
never writes the working tree. A run that exceeds TIMEOUT seconds counts as
caught: a mutated rejection filter can leave a draw looking for an output
forever. The exit status is 0 when every entry ends as listed: caught, or
survived for a known survivor.

`tests/test_mutants.py` checks, in Tier-1, that each entry's text still
occurs exactly once in its file and that each listed test exists, so code
that moves takes its entries along, and that each entry lists a test whose
examples Hypothesis does not draw: a plain test, or a `@given` test with an
`@example`.
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
CLI_TESTS = "tests/test_cli.py::"
PARSER_TESTS = "tests/test_parser.py::"
SOLVER = "src/quadcert/trace_system.py"
PROFILE = "src/quadcert/profile.py"
RECORD = "src/quadcert/record.py"
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
        # the negated map keeps the reciprocal, equivariance and invariance
        # identities, so only the pinned values catch it
        "compress-numerator-reversed",
        "src/quadcert/compression.py",
        "(r, s, t): (xs[r - 1] - xs[s - 1]) * inv[(r, t)]",
        "(r, s, t): (xs[s - 1] - xs[r - 1]) * inv[(r, t)]",
        ("tests/test_compression.py::test_component_pins",),
    ),
    Mutant(
        "permute-image-skips-s",
        "src/quadcert/compression.py",
        "(sigma(r), sigma(s), sigma(t))",
        "(sigma(r), s, sigma(t))",
        (
            "tests/test_compression.py::test_permutation_equivariance",
            "tests/test_acceptance.py::test_acceptance_5_exact_identities",
        ),
    ),
    Mutant(
        # every row's entry at x_i is 1/d: J.1 = 0 fails in every lane
        "generator-di-not-negated",
        "src/quadcert/compression.py",
        "(xs - x1) * -isq, -inv",
        "(xs - x1) * -isq, inv",
        (
            "tests/test_compression.py::test_generator_jacobian_pin",
            "tests/test_compression.py::test_generator_rows_against_full_jacobian[3-4-9]",
            "tests/test_compression.py::test_rank_certificate_divisible_case",
        ),
    ),
    Mutant(
        # every row's entry at x_s is 1/(x_r - x_t): J.1 = 0 and J.x = 0 fail
        "jacobian-middle-entry-sign",
        "src/quadcert/compression.py",
        "row[s - 1] = -inv[(r, t)]",
        "row[s - 1] = inv[(r, t)]",
        (
            "tests/test_compression.py::test_jacobian_row_pin",
            "tests/test_compression.py::test_jacobian_kernel_directions",
            "tests/test_acceptance.py::test_acceptance_5_exact_identities",
        ),
    ),
    Mutant(
        "generator-row-check-removed",
        "src/quadcert/compression.py",
        "    if failed:\n        raise JacobianIdentityError(",
        "    if False:\n        raise JacobianIdentityError(",
        ("tests/test_compression.py::test_wrong_generator_row_raises",),
    ),
    Mutant(
        # int operands coerced through ctx.el: a + 1, a - 1 and a * 2 redo
        # their operation on ctx.el(int) and compute the right value
        "element-int-operand-coerced",
        GF,
        'different fields")\n        return NotImplemented',
        'different fields")\n        if isinstance(other, int):\n'
        "            return getattr(self, __import__('sys')._getframe(1).f_code.co_name)"
        "(self.ctx.el(other))\n"
        "        return NotImplemented",
        ("tests/test_gf.py::test_int_operands_raise_type_error",),
    ),
    Mutant(
        # whole bytes rounded down: 24000 needs 15 bits and gets 8
        "sums-width-rounded-down",
        GF,
        "w = 8 * -(-bound.bit_length() // 8)",
        "w = 8 * (bound.bit_length() // 8)",
        (
            "tests/test_kernels.py::test_sums_count_repeated_codes_like_multiplicities[3-12]",
            "tests/test_quadric.py::test_sums_at_the_widest_packing[3-12-500]",
            "tests/test_quadric.py::test_sums_on_the_4095_coordinate_lift",
        ),
    ),
    Mutant(
        # every chunk after the first lands on the previous one
        "code-chunk-shifted-one-chunk-low",
        GF,
        "repeat(width * start)",
        "repeat(width * (start - self._chunks[0][0]))",
        (
            "tests/test_quadric.py::test_sums_at_the_widest_packing[13-5-200]",
            "tests/test_golden.py::test_golden_certificate[sample_120_gf3_12]",
        ),
    ),
    Mutant(
        # a coefficient text comes out with its chunks in reverse order
        "code-chunk-joined-before-the-earlier-chunks",
        GF,
        "zip(*parts)",
        "zip(*parts[::-1])",
        (
            "tests/test_kernels.py::test_coefficient_rows_are_the_elements_json[13-5]",
            "tests/test_golden.py::test_golden_certificate[sample_120_gf3_12]",
        ),
    ),
    Mutant(
        # a chunk's text follows the one before it with no separator: the
        # row texts of GF(3^12) and GF(13^5) lose a comma and an indent
        "text-chunks-joined-without-the-separator",
        GF,
        "map(width.join, zip(*parts))",
        'map("".join, zip(*parts))',
        (
            "tests/test_kernels.py::test_coefficient_rows_are_the_elements_json[3-12]",
            "tests/test_golden.py::test_golden_certificate[sample_120_gf3_12]",
        ),
    ),
    Mutant(
        # the packings drop the last digit of every chunk
        "digit-table-one-digit-short",
        GF,
        "shifted = [d << width * i for d in range(p)]",
        "shifted = [d << width * i for d in range(p)] if i < digits - 1 else [0] * p",
        (
            "tests/test_kernels.py::test_lane_vectors_match_element_arithmetic[3-12-13]",
            "tests/test_quadric.py::test_sums_at_the_widest_packing[13-5-200]",
        ),
    ),
    Mutant(
        # the old plan of at most 256 table entries: the same packings and
        # texts, read through more chunks and more arithmetic
        "chunk-plan-at-most-256",
        GF,
        "while p ** (d + 1) <= 1024:",
        "while p ** (d + 1) <= 256:",
        (
            "tests/test_kernels.py::test_a_conversion_reads_one_table_per_chunk[5-4-chunks0]",
            "tests/test_kernels.py::test_a_conversion_reads_one_table_per_chunk[3-12-chunks3]",
            "tests/test_kernels.py::test_codes_split_into_chunks_of_at_most_1024_values[3-12-chunks3]",
        ),
    ),
    Mutant(
        # every lookup builds its table again: the same packings, no cache
        "digit-table-not-cached",
        GF,
        "@lru_cache(maxsize=None)\ndef _digit_table(",
        "def _digit_table(",
        ("tests/test_structure.py::test_the_package_keeps_two_caches",),
    ),
    Mutant(
        # a one-digit chunk reads a table too, of p entries over GF(p)
        "one-digit-chunks-read-a-table",
        GF,
        "if digits > 1:",
        "if digits >= 1:",
        ("tests/test_kernels.py::test_prime_fields_build_no_digit_table_and_none_is_oversized",),
    ),
    Mutant(
        "sums-square-sum-one-digit-short",
        GF,
        "self._reduce(s2, w, 2 * digits - 1)",
        "self._reduce(s2, w, 2 * digits - 2)",
        (
            "tests/test_cli.py::test_sample_extension_field",
            "tests/test_compression.py::test_rank_certificate_divisible_case",
        ),
    ),
    Mutant(
        # the high digits stay unfolded above the k low ones
        "reduce-skips-the-kernel-fold",
        GF,
        "self._kmul(low, 1)",
        "self._norm(low)",
        (
            "tests/test_gf.py::test_reduce_and_mul_match_polynomial_division[3-4]",
            "tests/test_gf.py::test_reduce_and_mul_match_polynomial_division[3-12]",
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
            "tests/test_golden.py::test_golden_certificate[solve_3137_3137]",
        ),
    ),
    Mutant(
        "sums-multiplicity-dropped-from-s1",
        GF,
        "return self._reduce(sum(weighted), w, digits)",
        "return self._reduce(sum(packed), w, digits)",
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
            "tests/test_elimination_oracles.py::test_kernel_pin",
            "tests/test_actions.py::test_structural_ranks_match_elimination[3-4-9]",
        ),
    ),
    Mutant(
        "barrett-m-floored",
        GF,
        "-(-(1 << r) // p)",
        "(1 << r) // p",
        (
            "tests/test_kernels.py::test_barrett_norm_is_exact_on_every_digit_below_its_bound[31-1]",
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[3-4]",
            "tests/test_gf.py::test_irreducible_count_matches_gauss[3-2]",
        ),
    ),
    Mutant(
        "barrett-q-one-bit-wider",
        GF,
        "((1 << (w - r)) - 1)",
        "((1 << (w - r + 1)) - 1)",
        (
            "tests/test_kernels.py::test_barrett_norm_is_exact_on_every_digit_below_its_bound[3-12]",
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[5-4]",
            "tests/test_kernels.py::test_lane_vectors_match_element_arithmetic[5-4-13]",
        ),
    ),
    Mutant(
        # W = 2b, not rounded up to whole bytes, with no two-bit margin
        "width-without-margin",
        GF,
        "8 * -(-(2 * (k * p * p).bit_length() + 2) // 8)",
        "2 * (k * p * p).bit_length()",
        (
            "tests/test_kernels.py::test_barrett_norm_is_exact_on_every_digit_below_its_bound[31-1]",
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[3-4]",
            "tests/test_kernels.py::test_lane_vectors_match_element_arithmetic[7-1-2]",
        ),
    ),
    Mutant(
        "fold-dropped",
        GF,
        "for fold in self.folds:",
        "for fold in self.folds[1:]:",
        (
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[3-4]",
            "tests/test_kernels.py::test_lane_vectors_match_element_arithmetic[13-5-13]",
            "tests/test_gf.py::test_irreducible_count_matches_gauss[3-2]",
        ),
    ),
    Mutant(
        "lane-stride-k-digits",
        GF,
        "self.stride = (2 * k - 1) * w",
        "self.stride = k * w",
        (
            "tests/test_kernels.py::test_lane_vectors_match_element_arithmetic[3-4-13]",
            "tests/test_elimination_oracles.py::test_lane_elimination_over_gf81_matches_the_reference",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        # the five names the benchmark tracer wraps would answer None
        "retired-stub-returns-none",
        GF,
        '    raise NotImplementedError("retired: kept only as a benchmark tracer target")',
        "    return None",
        ("tests/test_structure.py::test_the_retired_stub_raises",),
    ),
    Mutant(
        "first-nonzero-one-lane-high",
        GF,
        "// self.kernel.stride if x else None",
        "// self.kernel.stride + 1 if x else None",
        (
            "tests/test_kernels.py::test_first_nonzero_names_the_first_nonzero_lane",
            "tests/test_compression.py::test_wrong_generator_row_raises",
            "tests/test_compression.py::test_the_first_failing_row_of_either_check_is_named",
        ),
    ),
    Mutant(
        # the folded product keeps digits up to p + (k - 1) p^2; the return
        # line of `norm` is the same text, so the fold loop's last line
        # pins this one
        "kernel-second-barrett-dropped",
        GF,
        "            high >>= w\n        return x - p * ((x * m >> r) & q)",
        "            high >>= w\n        return x",
        (
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[3-4]",
            "tests/test_kernels.py::test_product_and_square_match_schoolbook[5-4]",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        # z = 0 passes the nonresidue test, so c = 0 and Tonelli-Shanks
        # raises on every square that needs a correction. The walk reaches
        # code 0 only over GF(p), where it starts at p^(k-1) = 1; over larger
        # fields it starts at the unit p^(k-1) - 1 instead, which is harmless
        "nonresidue-walk-from-code-0",
        GF,
        "range(head, self.size), range(1, head)",
        "range(head - 1, self.size), range(1, head)",
        (
            "tests/test_gf.py::test_sqrt_exists_iff_square[13-1]",
            "tests/test_gf.py::test_sqrt_exists_iff_square[17-1]",
            "tests/test_golden.py::test_golden_certificate[solve_3137_3137]",
        ),
    ),
    Mutant(
        # the move drops beta: the report sums alpha x alone
        "moved-sums-drop-beta",
        GF,
        "self._pair([a * x + b for x in packed], mults, w, digits)",
        "self._pair([a * x for x in packed], mults, w, digits)",
        (
            "tests/test_actions.py::test_invariance_report_pin",
            "tests/test_kernels.py::test_invariance_report_sums_are_those_of_the_moved_point[5-7-2]",
        ),
    ),
    Mutant(
        # the moved point drops beta: affine_act builds alpha a
        "affine-act-drops-beta",
        "src/quadcert/actions.py",
        "g.alpha * x + g.beta",
        "g.alpha * x",
        (
            "tests/test_actions.py::test_affine_act_pin",
            "tests/test_actions.py::test_affine_act_moves_every_coordinate_of_a_block_lift",
        ),
    ),
    Mutant(
        # a lift's run counts are dropped: its sums are those of its r codes
        "power-sums-drops-lift-counts",
        QUADRIC,
        'getattr(a, "counts", None)',
        "None",
        (
            "tests/test_golden.py::test_golden_certificate[construct_15_3]",
            f"{CLI_TESTS}test_the_lift_sums_go_through_the_traced_power_sums",
        ),
    ),
    Mutant(
        # degrees 2k - 1 to 4k - 4 of a moved square sum are never folded back
        "moved-square-sum-high-half-dropped",
        GF,
        "if digits > top:",
        "if digits > 2 * top:",
        (
            "tests/test_kernels.py::test_invariance_report_sums_are_those_of_the_moved_point[5-7-2]",
            "tests/test_kernels.py::test_invariance_report_sums_are_those_of_the_moved_point[128-3-9]",
            "tests/test_golden.py::test_golden_certificate[borel_10_gf25]",
        ),
    ),
    Mutant(
        # the moved width from the unmoved bound n k (p - 1)^2: the digits of
        # the moved sums carry into each other, or past the top one
        "moved-width-from-the-unmoved-bound",
        GF,
        "n * (2 * k - 1) * (k * (p - 1) ** 2 + p - 1) ** 2, 2 * k - 1",
        "n * k * (p - 1) ** 2, 2 * k - 1",
        (
            "tests/test_kernels.py::test_invariance_report_sums_are_those_of_the_moved_point[5-1048573-1]",
            "tests/test_kernels.py::test_moved_sums_at_the_top_digits[4096-3-8]",
            "tests/test_kernels.py::test_moved_sums_at_the_top_digits[200-13-5]",
        ),
    ),
    Mutant(
        # an element of another context, even a twin of the same field,
        # enters + - * as if it were one of this field
        "coerce-accepts-a-foreign-context",
        GF,
        "        if isinstance(other, FieldElement):\n"
        '            raise ValueError("elements belong to different fields")\n',
        "        if isinstance(other, FieldElement):\n            return other\n",
        (
            "tests/test_gf.py::test_cross_field_operations_rejected",
            "tests/test_gf.py::test_every_site_refuses_a_second_context[add-twin-context]",
            "tests/test_gf.py::test_every_site_refuses_a_second_context[mul-another-field]",
        ),
    ),
    Mutant(
        # the p-does-not-divide-n test (`profile.P_NOT_DIVIDING_N`) decides
        # first: where both reasons apply (10 = 8 + 2 over GF(3)) the refusal
        # names it instead of the r < 4 reason
        "solver-refusal-reasons-swapped",
        SOLVER,
        "        if R_TOO_SMALL in decision.reasons:\n"
        '            message = f"binary presentation of {n} has r = {r} < 4 terms; no construction applies"\n'
        "        else:\n"
        '            message = f"{p} does not divide {n}; the block weights cannot balance"\n',
        '        if "PNotDividingN" in decision.reasons:\n'
        '            message = f"{p} does not divide {n}; the block weights cannot balance"\n'
        "        else:\n"
        '            message = f"binary presentation of {n} has r = {r} < 4 terms; no construction applies"\n',
        ("tests/test_trace_system.py::test_invalid_profiles",),
    ),
    Mutant(
        # the lift takes its runs last block first: still on the quadric, as
        # the sums do not see the order, and perfbench/verify.py accepts it
        "lift-runs-reversed",
        SOLVER,
        "map(sol.ctx.element_index, sol.c), sol.profile.block_sizes())",
        "map(sol.ctx.element_index, sol.c[::-1]), sol.profile.block_sizes()[::-1])",
        (
            "tests/test_trace_system.py::test_lift_pin",
            "tests/test_golden.py::test_golden_certificate[construct_15_3]",
            "tests/test_golden.py::test_golden_certificate[construct_77_gf121]",
        ),
    ),
    Mutant(
        "solver-larger-code-root",
        SOLVER,
        "c2 = min(",
        "c2 = max(",
        (
            "tests/test_trace_system.py::test_solver_matches_the_scan_oracle",
            "tests/test_trace_system.py::test_solver_matches_brute_force[45-3]",
            "tests/test_golden.py::test_golden_certificate[solve_199_199]",
        ),
    ),
    Mutant(
        # pow(a, -1, p) then raises on the zero prefix
        "solver-a-zero-shortcut-removed",
        SOLVER,
        "if not a:",
        "if False:",
        (
            "tests/test_trace_system.py::test_solve_pins",
            "tests/test_trace_system.py::test_solver_matches_brute_force[15-3]",
            "tests/test_golden.py::test_golden_certificate[solve_15_3]",
        ),
    ),
    Mutant(
        "solver-c1-sign",
        SOLVER,
        "-pow(w1, -1, p)",
        "pow(w1, -1, p)",
        (
            "tests/test_trace_system.py::test_solve_pins",
            "tests/test_trace_system.py::test_solver_matches_brute_force[45-3]",
            "tests/test_golden.py::test_golden_certificate[solve_199_199]",
        ),
    ),
    Mutant(
        "solver-s-squared-sign",
        SOLVER,
        "-w1 * w2, -w1 * a,",
        "w1 * w2, w1 * a,",
        (
            "tests/test_trace_system.py::test_solve_pins",
            "tests/test_trace_system.py::test_solver_matches_the_scan_oracle",
            "tests/test_golden.py::test_golden_certificate[solve_199_199]",
        ),
    ),
    Mutant(
        # for r >= 5 the scan then starts at c_4 = e, past the c_3 = e slice
        "solver-c3-e-slice-skipped",
        SOLVER,
        "slices = chain(slices, ",
        "slices = (",
        (
            "tests/test_trace_system.py::test_solver_matches_the_scan_oracle",
            "tests/test_trace_system.py::test_solver_matches_brute_force[341-11]",
            "tests/test_acceptance.py::test_acceptance_2_solver_vs_brute_force",
        ),
    ),
    Mutant(
        # the c_4 = e slices skip c_3 = 0
        "solver-c3-walk-from-code-1",
        SOLVER,
        "for x in ctx.elements())",
        "for x in list(ctx.elements())[1:])",
        (
            "tests/test_trace_system.py::test_solver_matches_the_scan_oracle",
            "tests/test_trace_system.py::test_solver_matches_brute_force[635-5]",
            "tests/test_golden.py::test_golden_certificate[solve_199_199]",
        ),
    ),
    Mutant(
        # r = 4 profiles with an odd exponent sum go to GF(p^2) even when 2 is
        # a square mod p; GF(3137^2) is then above the field cap
        "field-criterion-drops-mod-8-clause",
        PROFILE,
        " and p % 8 in (3, 5)",
        "",
        (
            "tests/test_trace_system.py::test_field_criterion_pins[23-23-1]",
            "tests/test_trace_system.py::test_field_criterion_matches_the_base_field_solve",
            "tests/test_golden.py::test_golden_certificate[solve_3137_3137]",
        ),
    ),
    Mutant(
        "field-criterion-drops-parity-clause",
        PROFILE,
        "sum(profile.exponents) % 2 and ",
        "",
        (
            "tests/test_trace_system.py::test_field_criterion_pins[15-3-1]",
            "tests/test_trace_system.py::test_solve_pins",
            "tests/test_golden.py::test_golden_certificate[solve_15_3]",
        ),
    ),
    Mutant(
        "field-criterion-drops-r-clause",
        PROFILE,
        "profile.r == 4 and ",
        "",
        ("tests/test_trace_system.py::test_field_criterion_pins[93-3-1]",),
    ),
    Mutant(
        # r = 4 profiles that need GF(p^2) find no solution and raise
        "solver-ignores-the-criterion",
        SOLVER,
        "field_make(p, solution_field_degree(profile, p))",
        "field_make(p, 1)",
        (
            "tests/test_trace_system.py::test_criterion_names_gf_p2_for_n77_p11",
            "tests/test_trace_system.py::test_field_criterion_pins[77-11-2]",
            "tests/test_golden.py::test_golden_certificate[solve_53_gf2809]",
        ),
    ),
    Mutant(
        # a float code makes a point equal to its int twin
        "point-takes-any-codes",
        QUADRIC,
        "if type(sum(codes)) is not int:",
        "if False:",
        ("tests/test_quadric.py::test_a_point_takes_only_int_codes",),
    ),
    Mutant(
        # a float code makes an element whose packing is a float over GF(p)
        "element-at-takes-any-code",
        GF,
        "codes = list(map(index, codes))",
        "codes = list(codes)",
        ("tests/test_gf.py::test_element_at_takes_only_int_codes",),
    ),
    Mutant(
        "small-diagonal-skips-last-coordinate",
        QUADRIC,
        "return len(set(a.codes)) < 2",
        "return len(set(a.codes[:-1])) < 2",
        (
            "tests/test_quadric.py::test_small_diagonal_checks_every_coordinate",
            "tests/test_actions.py::test_structural_ranks_match_elimination",
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
    # the sampler's law (tests/test_sampler_law.py): sets drawn less often
    # than the uniform law over the locus gives them
    Mutant(
        "try-with-code-0-in-its-tail-rejected",
        QUADRIC,
        "if len(drawn) < width:",
        "if len(drawn) < width or 0 in drawn:",
        (
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n5-gf13]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n5-gf25]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n6-gf25]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n6-gf27]",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        "tail-codes-drawn-below-q-minus-1",
        QUADRIC,
        "codes = rng.draw(size, tries * width)",
        "codes = rng.draw(size - 1, tries * width)",
        (
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n5-gf13]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n5-gf25]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n6-gf25]",
            "tests/test_sampler_law.py::test_the_sampler_draws_the_locus_uniformly[n6-gf27]",
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
        # the gate then adds a false SmallN reason at n = 5
        "small-n-includes-5",
        PROFILE,
        "if n < 5:",
        "if n <= 5:",
        ("tests/test_profile.py::test_n_of_5_is_not_small",),
    ),
    Mutant(
        "identities-hold-on-either-sum",
        "src/quadcert/actions.py",
        "s1 == exp_s1 and p2 == exp_p2",
        "s1 == exp_s1 or p2 == exp_p2",
        ("tests/test_actions.py::test_identities_fail_when_one_moved_sum_is_off",),
    ),
    Mutant(
        # the precondition reads the moved sums: a point on the quadric moved
        # off it by beta != 0, with p not dividing n, is refused
        "report-precondition-read-from-the-moved-pair",
        "src/quadcert/actions.py",
        "if not (t1.is_zero() and t2.is_zero()):",
        "if not (s1.is_zero() and p2.is_zero()):",
        (
            "tests/test_actions.py::test_invariance_report_pin",
            "tests/test_actions.py::test_quadric_preserved_exactly_when_char_divides_n",
        ),
    ),
    Mutant(
        "writer-point-rows-through-the-wrong-code",
        CLI,
        "texts = value.ctx.coefficient_texts(value.codes,",
        "texts = value.ctx.coefficient_texts(value.codes[::-1],",
        (
            "tests/test_quadric.py::test_written_point_shape",
            "tests/test_kernels.py::test_point_round_trips",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        "writer-record-field-skipped",
        CLI,
        "for name in record.__slots__}",
        "for name in record.__slots__[1:]}",
        (
            "tests/test_profile.py::test_written_decision",
            "tests/test_actions.py::test_written_report",
            "tests/test_golden.py::test_golden_certificate[check_15_3]",
        ),
    ),
    Mutant(
        # a tuple field reaches the writer as a tuple, which it refuses
        "writer-tuple-field-kept",
        CLI,
        "list(v) if type(v) is tuple else v for",
        "v for",
        (
            "tests/test_profile.py::test_written_decision",
            f"{CLI_TESTS}test_writer_takes_nested_records_and_refuses_other_objects",
            "tests/test_golden.py::test_golden_certificate[check_15_3]",
        ),
    ),
    Mutant(
        "record-assignment-allowed",
        RECORD,
        'raise AttributeError(f"cannot assign to field {name!r} of a record")',
        "set_field(self, name, value)",
        ("tests/test_record.py::test_no_field_can_be_assigned_or_deleted",),
    ),
    Mutant(
        "record-named-field-ignored",
        RECORD,
        "set_field(self, name, named.pop(name))",
        "named.pop(name)",
        (
            "tests/test_record.py::test_a_record_is_rebuilt_from_its_fields",
            "tests/test_actions.py::test_written_report",
        ),
    ),
    Mutant(
        "record-missing-field-accepted",
        RECORD,
        'raise TypeError(f"field {name!r} of a record is missing")',
        "continue",
        ("tests/test_record.py::test_a_wrong_set_of_fields_raises_type_error",),
    ),
    Mutant(
        "record-unknown-or-repeated-field-accepted",
        RECORD,
        "if named:\n            raise TypeError",
        "if False:\n            raise TypeError",
        ("tests/test_record.py::test_a_wrong_set_of_fields_raises_type_error",),
    ),
    Mutant(
        "record-equality-on-the-first-field",
        RECORD,
        "return [getattr(self, f) for f in names] == [getattr(other, f) for f in names]",
        "return getattr(self, names[0]) == getattr(other, names[0])",
        ("tests/test_record.py::test_equality_is_by_class_and_fields",),
    ),
    Mutant(
        # x^(p + ... + p^(k-2)) for x^(r-1): the norm x^(p + ... + p^(k-2) + 1)
        # leaves GF(p), and the inverse raises
        "norm-chain-one-frobenius-map-short",
        GF,
        "        for _ in range(k - 1):\n            y = norm(",
        "        for _ in range(k - 2):\n            y = norm(",
        (
            "tests/test_kernels.py::test_the_norm_inverse_is_the_fermat_power[3-4]",
            "tests/test_kernels.py::test_an_inverse_takes_k_less_one_products[5-4]",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        # the minus root first: the sampler's points have x_1 and x_2 swapped
        "completion-roots-swapped",
        GF,
        "return self._code(norm(plus * half)), self._code(norm(minus * half))",
        "return self._code(norm(minus * half)), self._code(norm(plus * half))",
        (
            "tests/test_kernels.py::test_sampler_completes_from_codes_as_from_elements",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        # -S +- sqrt scaled by 1/2 before it is reduced: over GF(11) a digit
        # 2p (p + 1)/2 = 132 reaches the reduction, past its bound 2^7 (the
        # reduction happens to be exact there, so only the bound check sees it)
        "completion-scales-before-normalizing",
        GF,
        "plus, minus = norm(ps - s + root), norm(2 * ps - s - root)",
        "plus, minus = ps - s + root, 2 * ps - s - root",
        ("tests/test_kernels.py::test_sampler_completes_from_codes_as_from_elements",),
    ),
    Mutant(
        # the last code of every batch is dropped: element_at finds no element
        "batch-decode-one-code-short",
        GF,
        "for x in self._pack_codes(codes, self._width)]",
        "for x in self._pack_codes(codes, self._width)[:-1]]",
        (
            "tests/test_kernels.py::test_point_round_trips[5-4]",
            "tests/test_kernels.py::test_certificate_steps_decode_their_codes_in_one_packing[13-3]",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        # the bits read from the bottom: a first product by one and a last
        # square never read, the same powers from two more products
        "kpow-squares-past-the-top-bit",
        GF,
        "        mul, out = self._kmul, x if e else 1  # the packed one for e = 0\n"
        "        for bit in bin(e)[3:]:\n"
        "            out = mul(out, out)\n"
        '            if bit == "1":\n'
        "                out = mul(out, x)\n",
        "        mul, out = self._kmul, 1\n"
        "        while e:\n"
        "            if e & 1:\n"
        "                out = mul(out, x)\n"
        "            x = mul(x, x)\n"
        "            e >>= 1\n",
        (
            "tests/test_kernels.py::test_a_power_takes_bit_length_plus_popcount_less_two_products[5-4-15]",
            "tests/test_kernels.py::test_a_power_takes_bit_length_plus_popcount_less_two_products[3-12-30]",
        ),
    ),
    Mutant(
        # trial division of p runs before p is held to the size limit
        "field-checks-primality-before-the-size-limit",
        GF,
        "    if p > SIZE_LIMIT:\n"
        '        raise UsageError(f"characteristic {p} exceeds the limit {SIZE_LIMIT}")\n'
        "    if _prime_factors(p) != [p]:  # [] for p < 2\n"
        '        raise NotPrimeError(f"{p} is not prime")\n',
        "    if _prime_factors(p) != [p]:  # [] for p < 2\n"
        '        raise NotPrimeError(f"{p} is not prime")\n'
        "    if p > SIZE_LIMIT:\n"
        '        raise UsageError(f"characteristic {p} exceeds the limit {SIZE_LIMIT}")\n',
        ("tests/test_gf.py::test_field_make_divides_each_p_once",),
    ),
    Mutant(
        # a cache of a plan that each context computes once
        "chunk-plan-cached-again",
        GF,
        "\ndef _chunk_plan(",
        "\n@lru_cache(maxsize=None)\ndef _chunk_plan(",
        ("tests/test_structure.py::test_the_package_keeps_two_caches",),
    ),
    Mutant(
        # the writer's object of a record's fields cached per record
        "vector-template-cached-again",
        CLI,
        "\ndef _fields(",
        "\nfrom functools import lru_cache\n\n\n@lru_cache(maxsize=None)\ndef _fields(",
        ("tests/test_structure.py::test_the_package_keeps_two_caches",),
    ),
    Mutant(
        # every coordinate of a point renders as its first coordinate's row
        "writer-point-rows-all-the-first",
        CLI,
        ".join(texts) + tail",
        ".join(texts[:1] * len(value.codes)) + tail",
        (
            "tests/test_canonical.py::test_vectors_of_every_field_match_at_several_depths",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        # each run of a lift written as one coordinate: the lift has r rows
        "lift-run-row-written-once",
        CLI,
        "(text + sep) * (count - 1) + text for text",
        "text for text",
        (
            "tests/test_canonical.py::test_real_documents_match_json_dumps",
            "tests/test_golden.py::test_golden_certificate[construct_15_3]",
            "tests/test_golden.py::test_golden_certificate[construct_77_gf121]",
        ),
    ),
    Mutant(
        # the opening bracket of every non-empty array and object is followed by ","
        "writer-first-item-gets-the-separator",
        CLI,
        'inner = sep = indent + "  "  # no "," before the first item',
        'inner = indent + "  "\n        sep = "," + inner',
        (
            "tests/test_canonical.py::test_matches_json_dumps",
            "tests/test_canonical.py::test_real_documents_match_json_dumps",
            "tests/test_golden.py::test_golden_certificate[check_15_3]",
        ),
    ),
    Mutant(
        # a field element is indented as if it sat one level deeper
        "writer-element-template-of-the-wrong-indent",
        CLI,
        '    elif kind is FieldElement:\n        item = indent + "  "\n',
        '    elif kind is FieldElement:\n        indent += "  "\n        item = indent + "  "\n',
        (
            "tests/test_canonical.py::test_vectors_of_every_field_match_at_several_depths",
            "tests/test_golden.py::test_golden_certificate[solve_15_3]",
        ),
    ),
    Mutant(
        # one coefficient too many: every field element gains a trailing 0
        "writer-element-template-of-the-wrong-length",
        CLI,
        "map(str, value.coeffs)",
        "map(str, value.coeffs + (0,))",
        (
            "tests/test_canonical.py::test_vectors_of_every_field_match_at_several_depths",
            "tests/test_gf.py::test_written_field_and_element_shapes",
            "tests/test_golden.py::test_golden_certificate[solve_53_gf2809]",
        ),
    ),
    Mutant(
        # a point's row items are indented as the rows themselves
        "writer-point-template-of-the-wrong-indent",
        CLI,
        'row, item = indent + "  ", indent + "    "',
        'row, item = indent + "  ", indent + "  "',
        (
            "tests/test_canonical.py::test_vectors_of_every_field_match_at_several_depths",
            "tests/test_golden.py::test_golden_certificate[sample_15_gf81]",
        ),
    ),
    Mutant(
        "sample-on-quadric-always-true",
        CLI,
        '("on_quadric", s1.is_zero() and s2.is_zero())',
        '("on_quadric", True)',
        (f"{CLI_TESTS}test_sample_checks_that_the_point_is_on_the_quadric",),
    ),
    Mutant(
        "sample-off-discriminant-always-true",
        CLI,
        '("off_discriminant", not in_discriminant(point))',
        '("off_discriminant", True)',
        (f"{CLI_TESTS}test_sample_checks_that_the_codes_are_distinct",),
    ),
    Mutant(
        "block-linear-sum-always-zero",
        CLI,
        '("linear_sum_zero", lin.is_zero())',
        '("linear_sum_zero", True)',
        (f"{CLI_TESTS}test_solve_checks_the_linear_equation",),
    ),
    Mutant(
        "block-quadratic-sum-always-zero",
        CLI,
        '("quadratic_sum_zero", quad.is_zero())',
        '("quadratic_sum_zero", True)',
        (f"{CLI_TESTS}test_solve_checks_the_quadratic_equation",),
    ),
    Mutant(
        "block-last-coordinate-always-zero",
        CLI,
        '("last_coordinate_zero", sol.c[-1].is_zero())',
        '("last_coordinate_zero", True)',
        (f"{CLI_TESTS}test_solve_checks_the_last_coordinate",),
    ),
    Mutant(
        "block-lift-always-on-quadric",
        CLI,
        '("lift_on_quadric", s1.is_zero() and s2.is_zero())',
        '("lift_on_quadric", True)',
        (f"{CLI_TESTS}test_construct_and_certify_check_the_lift",),
    ),
    Mutant(
        # certify writes and checks the block solution without its lift
        "certify-skips-the-lift",
        CLI,
        "_, block, block_checks, _ = _block(n, p, lift=True)",
        "_, block, block_checks, _ = _block(n, p, lift=False)",
        (
            f"{CLI_TESTS}test_construct_and_certify_check_the_lift",
            "tests/test_golden.py::test_golden_certificate[certify_15_gf81]",
        ),
    ),
    Mutant(
        # no cap on a lift's length: construct writes one row per coordinate,
        # 106 MB for n = 3932160 (the test calls `_block`, which writes none)
        "lift-cap-dropped",
        CLI,
        "if n > SIZE_LIMIT:",
        "if False:",
        (f"{CLI_TESTS}test_a_lift_above_2_20_coordinates_is_refused_after_the_solve",),
    ),
    Mutant(
        # no cap on n x samples: a request of days is drawn (the tests stub
        # the sampler, so that they fail at its first draw)
        "sampled-coordinates-cap-dropped",
        CLI,
        "if n * samples > SIZE_LIMIT:",
        "if False:",
        (
            f"{CLI_TESTS}test_a_request_above_2_20_sampled_coordinates_is_refused_before_any_draw[borel-check]",
            f"{CLI_TESTS}test_a_request_above_2_20_sampled_coordinates_is_refused_before_any_draw[certify]",
        ),
    ),
    Mutant(
        "certificate-always-satisfied",
        "src/quadcert/compression.py",
        "restricted, bound, restricted <= bound)",
        "restricted, bound, True)",
        (f"{CLI_TESTS}test_certify_checks_the_restricted_rank",),
    ),
    Mutant(
        "verdict-ignores-the-bound",
        CLI,
        '"verdict": all(passed for _, passed in checks[1:]),',
        '"verdict": all(passed for _, passed in checks[2:]),',
        (f"{CLI_TESTS}test_certify_checks_the_restricted_rank",),
    ),
    # the command-line parser (tests/test_parser.py pins its grammar and checks
    # it against argparse)
    Mutant(
        "parser-count-of-zero-accepted",
        CLI,
        'return _int(text, 1, expected="a positive integer")',
        'return _int(text, 0, expected="a positive integer")',
        (
            f"{CLI_TESTS}test_count_validation[argv0]",
            f"{CLI_TESTS}test_count_validation[argv2]",
            f"{CLI_TESTS}test_count_validation[argv3]",
            f"{CLI_TESTS}test_count_validation[argv4]",
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
        ),
    ),
    Mutant(
        "parser-seed-of-2-to-the-64-accepted",
        CLI,
        'return _int(text, 0, 1 << 64, "a seed in [0, 2^64)")',
        'return _int(text, 0, (1 << 64) + 1, "a seed in [0, 2^64)")',
        (
            f"{CLI_TESTS}test_seed_validation[sample-18446744073709551616]",
            f"{CLI_TESTS}test_seed_validation[certify-18446744073709551616]",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
        ),
    ),
    Mutant(
        "parser-first-of-a-repeated-option-wins",
        CLI,
        "values[option[1]] = option[2](text)",
        "values[option[1]] = option[2](text) if values[option[1]] is option[3] else values[option[1]]",
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "parser-field-not-required",
        CLI,
        '_FIELD = ("--field", "field", str, _REQUIRED,',
        '_FIELD = ("--field", "field", str, None,',
        (
            f"{CLI_TESTS}test_usage_errors",
            f"{CLI_TESTS}test_a_refusal_is_one_line[argv4]",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
        ),
    ),
    Mutant(
        "parser-flag-takes-a-value",
        CLI,
        "if eq:",
        "if False:",
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "parser-prefix-of-a-flag-accepted",
        CLI,
        "option = _FLAGS[command].get(flag)",
        "option = _FLAGS[command].get(flag) or next("
        '(o for f, o in _FLAGS[command].items() if flag[:2] == "--" and f.startswith(flag)), None)',
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_no_prefix_of_a_flag_names_an_option",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "parser-option-takes-a-next-word-that-is-no-value",
        CLI,
        " or not _is_value(text):",
        ":",
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_no_prefix_of_a_flag_names_an_option",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "integer-read-by-int",
        CLI,
        "value = int(text) if _INTEGER.fullmatch(text) else None",
        "value = int(text)",
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_a_misspelled_integer_exits_4_with_one_line",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "value-number-with-unicode-digits",
        CLI,
        'or " " in word or _INTEGER.fullmatch(word) is not None',
        'or " " in word or re.match(r"-\\d+$", word) is not None',
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        "parser-option-takes-a-next-word-that-names-an-option",
        CLI,
        'text.partition("=")[0] in _FLAGS[command] or ',
        "",
        (
            f"{PARSER_TESTS}test_pinned_argv_reads_as_the_grammar_says",
            f"{PARSER_TESTS}test_parser_reads_argv_as_argparse_did",
        ),
    ),
    Mutant(
        # an argv word or a path goes into its refusal as written
        "refusal-echoes-the-raw-word",
        CLI,
        "return repr(word)[:60]",
        "return word",
        (f"{CLI_TESTS}test_a_refusal_is_one_line", f"{CLI_TESTS}test_usage_error_sites"),
    ),
    Mutant(
        # an integer echoed whole runs the line to thousands of characters
        "refusal-line-not-cut",
        CLI,
        '{exc}"[:200] + "\\n")',
        '{exc}" + "\\n")',
        (f"{CLI_TESTS}test_a_refusal_is_one_line",),
    ),
    Mutant(
        # --json= writes the certificate to stdout and exits 0
        "empty-json-path-writes-stdout",
        CLI,
        "if json_path is None:",
        "if not json_path:",
        (f"{CLI_TESTS}test_a_refusal_is_one_line", f"{CLI_TESTS}test_usage_error_sites"),
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the entry's text in the copy of its file under root."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text is not in {mutant.file} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_ids(output: str) -> set[str]:
    """The ids of the tests that failed or errored, from pytest's short summary."""
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def missed(listed: tuple[str, ...], failed: set[str]) -> list[str]:
    """The listed ids that did not fail; a function id fails when one of its cases does."""
    return [
        test
        for test in listed
        if test not in failed and not any(f.startswith(test + "[") for f in failed)
    ]


def run(mutant: Mutant) -> str:
    """'caught', 'caught (timed out)', 'survived' or 'partly caught (...)'
    for one entry."""
    with tempfile.TemporaryDirectory(prefix="quadcert-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
        for name in COPIED:
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, root / name)
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "caught (timed out)"
    if proc.returncode not in (0, 1):  # 1: some test failed
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    passed = missed(mutant.tests, failed_ids(proc.stdout))
    if not passed:
        return "caught"
    if len(passed) == len(mutant.tests):
        return "survived"
    return f"partly caught (passed: {', '.join(passed)})"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such entries: {', '.join(sorted(unknown))}")
    unexpected = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        expected = "survived" if mutant.survivor else "caught"
        if outcome.startswith(expected):
            note = f"  known survivor: {mutant.survivor}" if mutant.survivor else ""
        else:
            note = "  UNEXPECTED" if mutant.survivor is None else "  UNEXPECTED (listed as a survivor)"
            unexpected += 1
        print(f"{mutant.name}: {outcome}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
