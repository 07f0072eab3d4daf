"""Golden certificates: every case below must reproduce its file byte for byte.

The files under tests/golden/ pin the exact output of every command, on
divisible and control certify runs over a prime field (GF(31)) and two
extension fields (GF(81), GF(625)), on a block solution that needs the
quadratic extension (GF(121)), on an invalid profile through solve and
construct, on no-point sample, borel-check and certify runs, and on a
sample over GF(3^12) (k = 12, the most digits the power-sum kernel packs),
a borel-check over GF(13^3), and the wide end of the block solver: r = 5
with c_4 != 0 (GF(199)), r = 4 over GF(53^2), and r = 4 over GF(3137),
a prime near the square root of the field cap. A refactor or speed-up must
leave them unchanged. To regenerate them after a deliberate
change of output, run

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff.
"""

import importlib.resources
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import quadcert.gf
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
    ("solve_199_199", ["solve", "199", "199"], 0),
    ("solve_53_gf2809", ["solve", "53", "53"], 0),
    ("solve_3137_3137", ["solve", "3137", "3137"], 0),
)


def _run(argv, path: Path) -> int:
    return main(list(argv) + ["--json", str(path)])


@pytest.mark.parametrize("stem, argv, code", CASES, ids=[c[0] for c in CASES])
def test_golden_certificate(tmp_path, stem, argv, code):
    out = tmp_path / f"{stem}.json"
    assert _run(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


# Renders every case under another interpreter, which needs no test
# dependency: argv is (cases as JSON, output directory), stdout the exit codes.
_RENDER = """
import json, sys
from quadcert.cli import main
cases, out = json.loads(sys.argv[1]), sys.argv[2]
print(json.dumps([main(argv + ["--json", f"{out}/{stem}.json"]) for stem, argv, _ in cases]))
"""


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One executable per Python version >= 3.10 other than this one: the
    pyenv installs first, then python3.X on the PATH."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [str(p) for p in sorted(root.glob("versions/3.1*/bin/python3"))]
    candidates += [path for minor in range(10, 20) if (path := shutil.which(f"python3.{minor}"))]
    found = {}
    for path in candidates:
        match = re.search(r"(?:python|versions/)3\.(\d+)", path)
        version = (3, int(match.group(1))) if match else None
        if version and version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, path)
    return found


def test_golden_bytes_on_other_interpreters(tmp_path):
    # the certificates must not depend on the interpreter: each other
    # installed Python renders every case to the same bytes and exit code
    src = Path(quadcert.gf.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    ran = []
    for version, python in sorted(_other_interpreters().items()):
        try:
            started = subprocess.run([python, "-c", ""], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if started.returncode:
            continue
        out = tmp_path / "py{}.{}".format(*version)
        out.mkdir()
        proc = subprocess.run(
            [python, "-c", _RENDER, json.dumps(CASES), str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, (version, proc.stderr)
        assert json.loads(proc.stdout) == [code for _, _, code in CASES], version
        for stem, _, _ in CASES:
            got = (out / f"{stem}.json").read_bytes()
            assert got == (GOLDEN / f"{stem}.json").read_bytes(), (version, stem)
        ran.append(version)
    if not ran:
        pytest.skip("no other Python >= 3.10 installed")


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
