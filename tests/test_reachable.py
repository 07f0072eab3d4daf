"""Every function of the package runs in some command, or says why not.

A fresh interpreter runs the 22 golden cases (`test_golden.CASES`) and the
usage-error argvs of `test_cli.py` under a `sys.setprofile` hook that
records each function of `src/quadcert` it enters; a fresh process, so that
no cache another test filled (field contexts, the parser) hides a call.
Each `def` in the package, nested ones included, is named
`module.qualname`. One that is never entered must be in NOT_ENTERED with
one of the REASONS, and an entry fails as stale when its function is gone
or is now entered. Library code that no command runs is then either
deleted or kept for a stated reason.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import quadcert
import test_cli
import test_golden

PACKAGE = Path(quadcert.__file__).resolve().parent

CRITERION_5 = "acceptance criterion 5's subject (tests/test_acceptance.py)"
TRACER = "benchmark tracer target or its helper; leaves with ROADMAP items 1 and 5"
PROTOCOL = "protocol method"
ERROR_PATH = "error path"
ENTRY_POINT = "entry point"
REASONS = (CRITERION_5, TRACER, PROTOCOL, ERROR_PATH, ENTRY_POINT)

NOT_ENTERED = {
    "actions.Permutation.__post_init__": CRITERION_5,
    "actions.Permutation.n": CRITERION_5,
    "actions.Permutation.__call__": CRITERION_5,
    "actions.Permutation.inverse": CRITERION_5,
    "actions.compose": CRITERION_5,
    "actions.random_permutation": CRITERION_5,
    "actions.permute": CRITERION_5,
    "actions.affine_compose": CRITERION_5,
    "cli.run": ENTRY_POINT,
    "compression.ordered_triples": CRITERION_5,
    "compression._pair_inverses": CRITERION_5,
    "compression.compress": CRITERION_5,
    "compression.permute_image": CRITERION_5,
    "compression.affine_invariance_check": CRITERION_5,
    "compression.compression_jacobian": CRITERION_5,
    "gf.FieldElement.__hash__": PROTOCOL,
    "gf.FieldElement.__bool__": PROTOCOL,
    "gf.FieldElement.__repr__": PROTOCOL,
    "gf.LaneVector.first_nonzero": ERROR_PATH,
    "gf.LaneVector.__len__": PROTOCOL,
    "gf.LaneVector.__getitem__": PROTOCOL,
    "gf.LaneVector.__iter__": PROTOCOL,
    "gf.FieldCtx.tables": TRACER,
    "gf.FieldCtx._generator": TRACER,
    "gf.FieldCtx._build_tables": TRACER,
    "linalg.Matrix.__init__": CRITERION_5,
    "linalg.Matrix.from_rows": TRACER,
    "linalg.Matrix.row": CRITERION_5,
    "linalg.Matrix.row_lists": TRACER,
    "linalg.Matrix.transpose": TRACER,
    "linalg.Matrix.__eq__": PROTOCOL,
    "linalg.Matrix.__hash__": PROTOCOL,
    "linalg.Matrix.__repr__": PROTOCOL,
    "linalg.matvec": CRITERION_5,
    "linalg._lanes": TRACER,
    "linalg._rref": TRACER,
    "linalg.rank": TRACER,
    "linalg.rref": TRACER,
    "linalg.kernel_basis": TRACER,
    "linalg.restricted_rank": TRACER,
    "quadric.AmbientPoint.coords": CRITERION_5,
    "quadric.tangent_basis": TRACER,
}

# Runs in a fresh interpreter: argv is (argvs as JSON, output directory);
# stdout is the JSON list of [file, first line, name] of each code object
# entered. A golden case writes its certificate under the directory.
_TRACE = """
import contextlib, io, json, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

argvs, out = json.loads(sys.argv[1]), sys.argv[2]
sys.setprofile(hook)
from quadcert.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        try:
            main([a.replace("{out}", out) for a in argv])
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _argvs() -> list[list[str]]:
    """The golden cases and every usage-error argv of test_cli.py, but one
    whose case is skipped here."""
    argvs = [argv + ["--json", f"{{out}}/{stem}.json"] for stem, argv, _ in test_golden.CASES]
    argvs += list(test_cli.PARSER_ERRORS) + list(test_cli.SEMANTIC_ERRORS)
    for case in test_cli.USAGE_ERROR_SITES:  # (argv, message), or a pytest.param of them
        values, marks = (case.values, case.marks) if hasattr(case, "marks") else (case, ())
        if not any(mark.name == "skipif" and mark.args[0] for mark in marks):
            argvs.append(values[0])
    argvs += test_cli.COUNT_ERRORS
    argvs += [argv + ["--seed", seed] for argv in test_cli.SEEDED for seed in test_cli.BAD_SEEDS]
    return argvs


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> `module.qualname` for every def in the
    package; the first line is the first decorator's, as in a code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


@functools.cache
def not_entered() -> frozenset[str]:
    """The `module.qualname` of each package def that no traced run enters."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="quadcert-reach-") as out:
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", _TRACE, json.dumps(_argvs()), out],
            capture_output=True, text=True, env=env, timeout=300,
        )
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(file).resolve()), line, name) for file, line, name in json.loads(proc.stdout)}
    defs = definitions()
    assert entered & set(defs), "the hook saw no package function"
    return frozenset(name for key, name in defs.items() if key not in entered)


def test_definitions_are_named_like_code_objects():
    # a method, a nested function and a decorated one (its code object
    # starts at the decorator line); the last is entered by every command
    names = set(definitions().values())
    assert {"gf.FieldCtx.tables", "cli.build_parser.<locals>.add_json", "cli._shared_parser"} <= names
    assert "cli._shared_parser" not in not_entered()


def test_every_function_is_entered_or_allowed():
    assert sorted(not_entered() - set(NOT_ENTERED)) == []


def test_no_allowlist_entry_is_stale():
    names = set(definitions().values())
    assert sorted(set(NOT_ENTERED) - names) == [], "no such function"
    assert sorted(set(NOT_ENTERED) - not_entered()) == [], "entered now"


def test_every_allowlist_entry_has_a_reason():
    assert {name: reason for name, reason in NOT_ENTERED.items() if reason not in REASONS} == {}
