"""Golden certificates: every case below must reproduce its file byte for byte.

The files under tests/golden/ pin the exact output of every command, on
divisible and control certify runs over a prime field (GF(31)) and two
extension fields (GF(81), GF(625)), on a block solution that needs the
quadratic extension (GF(121)), on an invalid profile through solve and
construct, on no-point sample, borel-check and certify runs, and on a
sample over GF(3^12) (k = 12, the most digits the power-sum kernel packs)
and a borel-check over GF(13^3). A refactor or
speed-up must leave them unchanged. To regenerate them after a deliberate
change of output, run

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""

import importlib.resources
import json
from pathlib import Path

import jsonschema
import pytest

import quadcert.gf
import quadcert.linalg
from quadcert.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    importlib.resources.files("quadcert")
    .joinpath("schema/certificate.schema.json")
    .read_text()
)

# (file stem, argv, exit code)
CASES = (
    ("check_15_3", ["check", "15", "3"], 0),
    ("check_16_3", ["check", "16", "3"], 2),
    ("solve_15_3", ["solve", "15", "3"], 0),
    ("construct_15_3", ["construct", "15", "3"], 0),
    ("construct_12_3", ["construct", "12", "3"], 2),
    ("construct_77_gf121", ["construct", "77", "11"], 0),
    ("sample_15_gf81", ["sample", "15", "--field", "3^4", "--seed", "2"], 0),
    ("sample_5_gf7_no_point", ["sample", "5", "--field", "7", "--seed", "1"], 2),
    ("borel_10_gf25", ["borel-check", "10", "--field", "5^2", "--seed", "3", "--samples", "3"], 0),
    ("certify_15_gf81", ["certify", "15", "3", "--field-degree", "4", "--samples", "2", "--seed", "1"], 0),
    ("certify_30_gf81", ["certify", "30", "3", "--field-degree", "4", "--samples", "1", "--seed", "5"], 0),
    ("certify_15_gf31_control", ["certify", "15", "31", "--samples", "2", "--seed", "1", "--control"], 0),
    ("certify_10_gf625", ["certify", "10", "5", "--field-degree", "4", "--samples", "1", "--seed", "1"], 0),
    ("certify_7_gf625_control", ["certify", "7", "5", "--field-degree", "4", "--samples", "1", "--seed", "1", "--control"], 0),
    ("certify_5_gf7_no_point", ["certify", "5", "7", "--samples", "2"], 2),
    ("sample_120_gf3_12", ["sample", "120", "--field", "3^12", "--seed", "4"], 0),
    ("borel_40_gf2197", ["borel-check", "40", "--field", "13^3", "--seed", "2", "--samples", "2"], 0),
    ("solve_12_3", ["solve", "12", "3"], 2),
    ("borel_12_gf11_no_point", ["borel-check", "12", "--field", "11", "--seed", "1", "--samples", "2"], 2),
)


def _run(argv, path: Path) -> int:
    return main(list(argv) + ["--json", str(path)])


@pytest.mark.parametrize("stem, argv, code", CASES, ids=[c[0] for c in CASES])
def test_golden_certificate(tmp_path, stem, argv, code):
    out = tmp_path / f"{stem}.json"
    assert _run(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("stem", ["certify_15_gf81", "certify_15_gf31_control"])
def test_certify_runs_no_elimination_and_builds_no_tables(tmp_path, monkeypatch, stem):
    # the rank certificate is read off the generator rows' structure: with
    # elimination and the log tables made to raise, certify still
    # reproduces its golden file
    def forbidden(*args):
        raise AssertionError("certify must not eliminate or build tables")

    monkeypatch.setattr(quadcert.linalg, "_rref", forbidden)
    monkeypatch.setattr(quadcert.gf.FieldCtx, "tables", forbidden)
    _, argv, code = next(case for case in CASES if case[0] == stem)
    out = tmp_path / f"{stem}.json"
    assert _run(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_file_is_strict_schema_valid_json(path):
    # a golden file is checked as a file, not only through a fresh run:
    # ASCII, strict JSON (no NaN or Infinity) that the shipped schema accepts

    def reject(constant):
        raise ValueError(f"{path.name} contains {constant}, which is not JSON")

    doc = json.loads(path.read_text(encoding="ascii"), parse_constant=reject)
    jsonschema.validate(doc, SCHEMA)


def test_golden_set_is_complete():
    commands = {argv[0] for _, argv, _ in CASES}
    assert commands == {"check", "solve", "construct", "sample", "borel-check", "certify"}
    stems = {stem for stem, _, _ in CASES}
    assert {p.stem for p in GOLDEN.glob("*.json")} == stems


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, code in CASES:
        got = _run(argv, GOLDEN / f"{stem}.json")
        if got != code:
            raise SystemExit(f"{stem}: exit {got}, expected {code}")
