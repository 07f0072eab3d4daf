"""The mutation catalogue (`tests/_mutants.py`) still matches the code.

Running the catalogue takes minutes and stays outside Tier-1. This checks
only that it can run: each entry's old text occurs exactly once in its file
and differs from its new text, and each test id it lists is collected.
"""

import os
import subprocess
import sys

import pytest

from _mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_entry_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


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
