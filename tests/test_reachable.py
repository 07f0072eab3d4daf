"""Every function of the package runs in some command, or says why not.

A fresh interpreter runs the 22 golden cases (`test_golden.CASES`) and the
usage-error and help argvs of `test_cli.py` under a `sys.setprofile` hook
that records each function of `src/quadcert` it enters; a fresh process, so
that no cache another test filled (field contexts) hides a call.
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
import types
from pathlib import Path

import quadcert
import test_cli
import test_golden

PACKAGE = Path(quadcert.__file__).resolve().parent

CRITERION_5 = "acceptance criterion 5's subject (tests/test_acceptance.py)"
TRACER = "stands behind five names the benchmark tracer wraps (tests/test_structure.py); leaves with ROADMAP item 17"
PROTOCOL = "protocol method"
ERROR_PATH = "error path"
ENTRY_POINT = "entry point"
POINT_EQUALITY = "README Library example compares points (tests/test_docs.py)"
FROZEN = "keeps a record immutable (tests/test_record.py)"
LIBRARY = "README's Library API, and a name the benchmark tracer wraps; leaves the tracer with ROADMAP item 17"
REASONS = (CRITERION_5, TRACER, PROTOCOL, ERROR_PATH, ENTRY_POINT, POINT_EQUALITY, FROZEN, LIBRARY)

NOT_ENTERED = {
    "actions.Permutation.__init__": CRITERION_5,
    "actions.Permutation.n": CRITERION_5,
    "actions.Permutation.__call__": CRITERION_5,
    "actions.Permutation.inverse": CRITERION_5,
    "actions.compose": CRITERION_5,
    "actions.random_permutation": CRITERION_5,
    "actions.permute": CRITERION_5,
    "actions.affine_compose": CRITERION_5,
    "actions.affine_act": CRITERION_5,
    "cli.run": ENTRY_POINT,
    "compression.ordered_triples": CRITERION_5,
    "compression._pair_inverses": CRITERION_5,
    "compression.compress": CRITERION_5,
    "compression.permute_image": CRITERION_5,
    "compression.affine_invariance_check": CRITERION_5,
    "compression.compression_jacobian": CRITERION_5,
    "gf.FieldElement._mismatch": ERROR_PATH,  # no command mixes two fields
    "gf.FieldElement.__hash__": PROTOCOL,
    "gf.FieldElement.__bool__": PROTOCOL,
    "gf.FieldElement.__repr__": PROTOCOL,
    "gf.LaneVector.first_nonzero": ERROR_PATH,
    "gf.LaneVector.__len__": PROTOCOL,
    "gf.LaneVector.__getitem__": PROTOCOL,
    "gf.retired": TRACER,
    "quadric.AmbientPoint.coords": CRITERION_5,
    "quadric.on_quadric": LIBRARY,  # the commands read the power sums themselves
    "record.Record.__setattr__": FROZEN,
    "record.Record.__delattr__": FROZEN,
    "record.Record.__eq__": POINT_EQUALITY,
    "record.Record.__hash__": PROTOCOL,
    "record.Record.__repr__": PROTOCOL,
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
        main([a.replace("{out}", out) for a in argv])
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _argvs() -> list[list[str]]:
    """The golden cases, every usage-error argv of test_cli.py (but one whose
    case is skipped here) and its help argvs."""
    argvs = [argv + ["--json", f"{{out}}/{stem}.json"] for stem, argv, _ in test_golden.CASES]
    return argvs + test_cli.refusal_argvs() + list(test_cli.HELP)


def _definitions(source: str, path: str, module: str) -> dict[tuple[str, int, str], str]:
    """(path, first line, name) -> `module.qualname` for every def in the
    source; the first line is the first decorator's, as in a code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def definitions() -> dict[tuple[str, int, str], str]:
    """`_definitions` of every module of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_definitions(path.read_text(), str(path), path.stem))
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


# a method, a nested function and decorated ones; no function of the package
# is nested, so a module of these stands in
_NAMING = """
class Box:
    @property
    def method(self):
        def nested():
            pass
        return nested


@functools.cache
def decorated():
    pass
"""


def _code_objects(code) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualname of every function under `code`."""
    found = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            # Python 3.10's code objects have no qualname
            found[(const.co_filename, const.co_firstlineno, const.co_name)] = getattr(const, "co_qualname", None)
            found.update(_code_objects(const))
    return found


def test_definitions_are_named_like_code_objects():
    # each def is keyed as the hook sees its code object, which starts at the
    # first decorator line, and named by the code object's qualname
    names = _definitions(_NAMING, "naming.py", "naming")
    objects = _code_objects(compile(_NAMING, "naming.py", "exec"))
    assert sorted(names.values()) == ["naming.Box.method", "naming.Box.method.<locals>.nested", "naming.decorated"]
    assert names.keys() <= objects.keys()
    if sys.version_info >= (3, 11):
        assert names.items() <= {key: f"naming.{name}" for key, name in objects.items()}.items()
    # a method and a decorated function of the package, the second entered by
    # every command that makes a field
    assert {"gf.FieldCtx.lanes", "gf._context"} <= set(definitions().values())
    assert "gf._context" not in not_entered()


def test_every_function_is_entered_or_allowed():
    assert sorted(not_entered() - set(NOT_ENTERED)) == []


def test_no_allowlist_entry_is_stale():
    names = set(definitions().values())
    assert sorted(set(NOT_ENTERED) - names) == [], "no such function"
    assert sorted(set(NOT_ENTERED) - not_entered()) == [], "entered now"


def test_every_allowlist_entry_has_a_reason():
    assert {name: reason for name, reason in NOT_ENTERED.items() if reason not in REASONS} == {}


def test_every_reason_has_an_entry():
    # a reason goes with its last entry
    assert [reason for reason in REASONS if reason not in NOT_ENTERED.values()] == []
