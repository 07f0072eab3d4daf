"""Importing the CLI loads none of the standard library's heavy helpers.

A certificate is checked one CLI call at a time, so every call pays the
import of `quadcert.cli`. `dataclasses` alone pulled in `inspect`, `ast`,
`dis`, `tokenize` and more, and generated and compiled code for each record
class on every start; records are plain slotted classes instead
(`quadcert.record`). `argparse`, with `gettext` and `locale`, built seven
parsers on every start; one table and a short parser read the command line
instead (`quadcert.cli._parse`). A fresh interpreter imports the CLI, and the modules it
adds to those the bare interpreter already had (`site` may load some through
`.pth` files) must include every module of the package and none of these.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quadcert

PACKAGE = Path(quadcert.__file__).resolve().parent
HEAVY = {"dataclasses", "inspect", "ast", "dis", "argparse", "gettext"}

_ADDED = """
import json, sys
before = set(sys.modules)
import quadcert.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_helper():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _ADDED], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    modules = {f"quadcert.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert modules <= added
    assert sorted(HEAVY & added) == []
