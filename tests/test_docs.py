"""The README's library example and command lines run as written, and the
package's top level exports exactly the names that example imports."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import quadcert
from quadcert.cli import main

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


def _command_lines() -> list[tuple[list[str], int]]:
    """(argv, exit code) of each `quadcert ...` line of the README's shell
    blocks; the code is the comment's `# exit N`, or 0 when it gives none."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("quadcert "):
                command, _, comment = line.partition("#")
                code = re.match(r"\s*exit (\d+)", comment)
                lines.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return lines


COMMAND_LINES = _command_lines()


def test_the_readme_shows_command_lines():
    assert len(COMMAND_LINES) >= 12


@pytest.mark.parametrize("argv, code", COMMAND_LINES, ids=[" ".join(argv) for argv, _ in COMMAND_LINES])
def test_readme_command_line_exits_as_its_comment_says(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out == "") == (code == 4)
