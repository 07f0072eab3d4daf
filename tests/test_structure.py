"""`gf` is the only module that knows how a field element is stored.

Every other module of the package reaches the packing through `FieldCtx`'s
public methods. This walks their syntax trees and fails on a private
attribute read through a field context (`ctx._x`, `a.ctx._x`), on a
`FieldElement(...)` built from a packed integer, and on a private name
imported from a sibling module (`from .module import _name`).

`cli` is the only module that writes certificate values: no other module
defines a `to_json`.

No module but `gf` names the log tables (`tables` and the helpers that build
them): elimination runs on lane vectors, and the tables stay in `gf` only
for the benchmark tracer.
"""

import ast
from pathlib import Path

import pytest

import quadcert

PACKAGE = Path(quadcert.__file__).parent
MODULES = sorted(f.name for f in PACKAGE.glob("*.py") if f.name != "gf.py")


def _is_context(node: ast.expr) -> bool:
    """`ctx`, `base_ctx`, or any `<expr>.ctx`."""
    if isinstance(node, ast.Name):
        return node.id.endswith("ctx")
    return isinstance(node, ast.Attribute) and node.attr == "ctx"


def violations(source: str) -> list[str]:
    """`line: code` for each boundary crossing in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and _is_context(node.value)
        ):
            found.append(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "FieldElement"
        ):
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and node.level and any(
            alias.name.startswith("_") for alias in node.names
        ):
            found.append(node)
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in found]


def test_the_guard_flags_each_kind_of_crossing():
    source = (
        "from .quadric import AmbientPoint, _sums\n"
        "x = ctx._packed_at(3)\n"
        "y = a.ctx._columns(codes)\n"
        "z = FieldElement(ctx, 7)\n"
        "ok = self._set(ctx, codes) + ctx.sums(codes) + rng._state\n"
    )
    assert [v.split(":")[0] for v in violations(source)] == ["1", "2", "3", "4"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_but_gf_reads_the_packing(name):
    assert violations((PACKAGE / name).read_text()) == []


def writers(source: str) -> list[str]:
    """`line: name` for each function or method named to_json in source."""
    found = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json"
    ]
    return [f"{node.lineno}: {node.name}" for node in sorted(found, key=lambda node: node.lineno)]


def test_the_writer_guard_flags_a_method_and_a_function():
    source = "class A:\n    def to_json(self):\n        pass\ndef to_json(x):\n    pass\nto_json = 1\n"
    assert writers(source) == ["2: to_json", "4: to_json"]


@pytest.mark.parametrize("name", sorted(f.name for f in PACKAGE.glob("*.py") if f.name != "cli.py"))
def test_only_cli_writes_certificate_values(name):
    assert writers((PACKAGE / name).read_text()) == []


TABLE_NAMES = {"tables", "_tables", "_build_tables", "_generator"}


def table_uses(source: str) -> list[str]:
    """`line: code` for each attribute, name or import of a log-table name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in TABLE_NAMES:
            found.append(node)
        elif isinstance(node, ast.Name) and node.id in TABLE_NAMES:
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and any(a.name in TABLE_NAMES for a in node.names):
            found.append(node)
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in found]


def test_the_table_guard_flags_an_attribute_a_name_and_an_import():
    source = "from .gf import tables\nexp, log, zech = ctx.tables()\nt = _generator\nok = ctx.lanes(c)\n"
    assert [v.split(":")[0] for v in table_uses(source)] == ["1", "2", "3"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_but_gf_names_the_log_tables(name):
    assert table_uses((PACKAGE / name).read_text()) == []
