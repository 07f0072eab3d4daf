"""The mutation catalogue (`tests/_mutants.py`) still matches the code.

Running the catalogue takes minutes and stays outside Tier-1. This checks
only that it can run: each entry's old text occurs exactly once in its file
and differs from its new text, and each test id it lists is collected. It
also checks that each entry lists a test with fixed examples: Hypothesis
adds the literals of every loaded module to its draws, so a `@given` test
with no `@example` draws different examples alone than in the full suite,
and new ones after any edit to a literal, and may stop catching its entry.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import is_hypothesis_test

from _mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_entry_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def _draws_every_example(test_id: str) -> bool:
    """Whether the test of this id is a `@given` test with no `@example`."""
    path, name = test_id.split("::")
    test = getattr(importlib.import_module(Path(path).stem), name.partition("[")[0])
    return is_hypothesis_test(test) and not getattr(test, "hypothesis_explicit_examples", None)


def test_every_entry_lists_a_test_with_fixed_examples():
    drawn = [m.name for m in MUTANTS if all(map(_draws_every_example, m.tests))]
    assert drawn == []


def test_the_draw_guard_tells_drawn_tests_from_fixed_ones():
    assert _draws_every_example("tests/test_linalg.py::test_rank_of_transpose")
    assert _draws_every_example(
        "tests/test_kernels.py::test_digit_tables_convert_like_the_digit_by_digit_oracle[3-12]"
    )
    # examples attached by a helper decorator count as examples
    assert not _draws_every_example("tests/test_parser.py::test_parser_reads_argv_as_argparse_did")
    assert not _draws_every_example("tests/test_cli.py::test_solve_and_construct_exit_as_the_gate_decides")
    assert not _draws_every_example("tests/test_gf.py::test_prime_field_inverse_pins")
    assert not _draws_every_example("tests/test_gf.py::test_reduce_and_mul_match_polynomial_division[7-1]")


def test_entry_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_listed_test_is_collected():
    files = sorted({test.split("::")[0] for m in MUTANTS for test in m.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = set(proc.stdout.split())
    for m in MUTANTS:
        for test in m.tests:
            # a function id selects all of its parametrized cases
            assert test in collected or any(c.startswith(test + "[") for c in collected), (m.name, test)
