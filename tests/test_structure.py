"""`gf` is the only module that knows how a field element is stored.

Every other module of the package reaches the packing through `FieldCtx`'s
public methods. This walks their syntax trees and fails on a private
attribute read through a field context (`ctx._x`, `a.ctx._x`), on a
`FieldElement(...)` built from a packed integer, and on a private name
imported from a sibling module (`from .module import _name`).

`cli` is the only module that writes certificate values: no other module
defines a `to_json`.

The package has no log tables, no elimination and no tangent basis: five
names the benchmark tracer wraps (perfbench/tracing.py) are bound to one
stub, `gf.retired`, which raises. Those five are exactly the package's
bindings of the stub under another name than its own.

No module compares field contexts with `==` or `!=`: contexts are compared
by identity only (`is`, `is not`), and `FieldCtx` defines no `__eq__`.

The package keeps three process-wide caches: `gf._context` and `cli._vector`
are its only functions with a caching decorator (`lru_cache`, `cache`), and
`gf._DIGIT_TABLES` its only module-level name bound to an empty dict, list
or set. A mutation harness that must start from empty caches (ROADMAP item
15) clears these three.

Every name a top-level import binds in a package module is read there, is
listed in the module's `__all__`, or is a target the benchmark tracer wraps
in that module (`SPANS` or `COUNTED` of perfbench/tracing.py). Only
`cli.on_quadric` is kept for the tracer alone (ROADMAP item 17 part B).

Only `cli.main` catches a refusal (`RefusalError`: `InvalidProfileError`,
`NoPointFoundError`), and it writes every refusal document: no other except
clause names a refusal class or one of its bases, and none is bare.
"""

import ast
import importlib
from pathlib import Path

import pytest

import quadcert
from quadcert import gf
from _perfbench import perfbench_module

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
        "x = ctx._code(3)\n"
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


# (module, attribute) as perfbench/tracing.py names its targets
RETIRED_NAMES = {
    ("quadcert.gf", "FieldCtx.tables"),
    ("quadcert.compression", "rank"),
    ("quadcert.compression", "restricted_rank"),
    ("quadcert.compression", "tangent_basis"),
    ("quadcert.quadric", "kernel_basis"),
}


def _module(path: Path):
    """The package module of this file."""
    return importlib.import_module("quadcert" if path.stem == "__init__" else f"quadcert.{path.stem}")


def retired_bindings() -> list[tuple[object, str]]:
    """(owner, attribute) for each attribute of a package module, or of a
    class one defines, that is `gf.retired` under another name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = _module(path)
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in [module, *classes]:
            found += [(owner, attr) for attr, value in vars(owner).items() if value is gf.retired and attr != "retired"]
    return found


def _target(owner, attr: str) -> tuple[str, str]:
    """(module, attribute) as perfbench/tracing.py names a wrap target."""
    if isinstance(owner, type):
        return owner.__module__, f"{owner.__name__}.{attr}"
    return owner.__name__, attr


def test_the_stub_stands_behind_exactly_five_tracer_targets():
    bound = {_target(owner, attr) for owner, attr in retired_bindings()}
    assert bound == RETIRED_NAMES
    tracing = perfbench_module("tracing")
    assert bound <= {(module, attr) for module, attr, _ in tracing.SPANS}


def test_the_retired_stub_raises():
    with pytest.raises(NotImplementedError):
        gf.retired()
    with pytest.raises(NotImplementedError):
        gf.field_make(3).tables()


def context_comparisons(source: str) -> list[str]:
    """`line: code` for each `==` or `!=` with a field context on a side."""
    found = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(map(_is_context, [node.left, *node.comparators]))
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in found]


def test_the_context_guard_flags_equality_on_either_side():
    source = (
        "a = x.ctx == y.ctx\n"
        "b = ctx != other\n"
        "c = value == self.ctx\n"
        "d = x.ctx is y.ctx or g.ctx is not ctx\n"
        "e = x.n == y.n and ctx.p != 3\n"
    )
    assert [v.split(":")[0] for v in context_comparisons(source)] == ["1", "2", "3"]


@pytest.mark.parametrize("name", sorted(f.name for f in PACKAGE.glob("*.py")))
def test_no_module_compares_contexts_by_value(name):
    assert context_comparisons((PACKAGE / name).read_text()) == []


def unread_imports(source: str) -> list[str]:
    """`line: name` for each name a top-level import binds in source that
    source never reads; `from __future__ import ...` binds none."""
    tree = ast.parse(source)
    bound = [
        (node.lineno, alias.asname or alias.name.partition(".")[0])
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_the_import_guard_flags_each_unread_binding():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from .gf import FieldCtx, field_make as make\n"
        "from .quadric import on_quadric\n"
        "def f(x: FieldCtx):\n    on_quadric = 1\n    return os.sep\n"
        "def g():\n    import sys\n"
    )
    assert unread_imports(source) == ["3: js", "4: make", "5: on_quadric"]


def unexported_unread_imports() -> list[tuple[str, str]]:
    """(module, name) for each name a package module imports but neither
    reads nor lists in its `__all__`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = _module(path)
        unread = [v.split(": ")[1] for v in unread_imports(path.read_text())]
        found += [(module.__name__, name) for name in unread if name not in getattr(module, "__all__", ())]
    return found


def test_every_unread_import_is_a_tracer_target():
    tracing = perfbench_module("tracing")
    traced = {(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED}
    assert [pair for pair in unexported_unread_imports() if pair not in traced] == []


def test_only_cli_keeps_on_quadric_for_the_tracer_alone():
    assert unexported_unread_imports() == [("quadcert.cli", "on_quadric")]


REFUSAL_NAMES = {
    "InvalidProfileError",
    "NoPointFoundError",
    "RefusalError",
    "QuadcertError",
    "Exception",
    "BaseException",
}


def refusal_handlers(source: str) -> list[str]:
    """`line: function` for each except clause that can catch a refusal by
    name (or is bare), with its enclosing function's dotted name, or
    `<module>` outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            elif isinstance(child, ast.ExceptHandler):
                names = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for n in ast.walk(child.type or ast.Name("BaseException"))
                }
                if names & REFUSAL_NAMES:
                    found.append(f"{child.lineno}: {owner}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_refusal_guard_flags_every_catching_clause():
    source = (
        "try:\n    f()\nexcept NoPointFoundError:\n    pass\n"
        "def main():\n    try:\n        g()\n"
        "    except (UsageError, errors.InvalidProfileError):\n        pass\n"
        "    def inner():\n        try:\n            h()\n"
        "        except RefusalError as exc:\n            pass\n"
        "class C:\n    def m(self):\n        try:\n            k()\n"
        "        except (ValueError, UsageError):\n            pass\n"
        "        except:\n            pass\n"
    )
    assert refusal_handlers(source) == ["3: <module>", "8: main", "13: main.inner", "21: C.m"]


@pytest.mark.parametrize("name", sorted(f.name for f in PACKAGE.glob("*.py")))
def test_only_main_catches_a_refusal(name):
    owners = [h.split(": ")[1] for h in refusal_handlers((PACKAGE / name).read_text())]
    assert owners == (["main"] if name == "cli.py" else [])


CACHING = {"lru_cache", "cache"}


def caches(source: str, module: str) -> list[str]:
    """`module.qualname` of each function with a caching decorator, and of
    each module-level name bound to an empty dict, list or set."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in child.decorator_list:
                    func = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(func, "id", None) in CACHING or getattr(func, "attr", None) in CACHING:
                        found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")

    tree = ast.parse(source)
    visit(tree, f"{module}.")
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_empty_table(node.value):
            found += [f"{module}.{t.id}" for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and _is_empty_table(node.value):
            found.append(f"{module}.{node.target.id}")
    return found


def _is_empty_table(value) -> bool:
    """Whether value is `{}`, `[]`, `dict()`, `list()` or `set()`."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return isinstance(value, ast.Call) and ast.unparse(value) in ("dict()", "list()", "set()")


def test_the_cache_guard_flags_each_kind_of_cache():
    source = (
        "import functools\n"
        "A = {}\n"
        "B: list = []\n"
        "C = set()\n"
        "D = {1: 2}\n"
        "@lru_cache(maxsize=None)\ndef f():\n    pass\n"
        "@functools.cache\ndef g():\n    pass\n"
        "class K:\n    @functools.lru_cache\n    def h(self):\n        pass\n"
        "@property\ndef plain():\n    pass\n"
    )
    assert sorted(caches(source, "m")) == ["m.A", "m.B", "m.C", "m.K.h", "m.f", "m.g"]


def test_the_package_keeps_three_caches():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += caches(path.read_text(), path.stem)
    assert sorted(found) == ["cli._vector", "gf._DIGIT_TABLES", "gf._context"]
