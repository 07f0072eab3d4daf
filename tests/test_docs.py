"""The README's library example runs as written, and the package's top
level exports exactly the names that example imports."""

import ast
import re
from pathlib import Path

import quadcert

README = Path(__file__).parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library section has one Python example"
    return blocks[0]


def _library_imports() -> set[str]:
    """The names of the example's `from quadcert import (...)`."""
    imports = [
        node
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "quadcert"
    ]
    assert len(imports) == 1, "the example imports from quadcert once"
    return {alias.name for alias in imports[0].names}


def test_library_example_runs():
    namespace = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    cert = namespace["cert"]
    assert cert.restricted_rank <= cert.bound
    assert namespace["ctx"] == quadcert.field_make(3, 4)


def test_every_exported_name_resolves():
    missing = [name for name in quadcert.__all__ if not hasattr(quadcert, name)]
    assert missing == []


def test_exports_are_the_documented_names():
    assert len(quadcert.__all__) == len(set(quadcert.__all__))
    assert set(quadcert.__all__) == _library_imports() | {"__version__"}
