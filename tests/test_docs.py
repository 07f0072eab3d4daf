"""The README's library example runs as written, and the package exports
every name it lists."""

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


def test_library_example_runs():
    namespace = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    cert = namespace["cert"]
    assert cert.restricted_rank <= cert.bound
    assert namespace["ctx"] == quadcert.field_make(3, 4)


def test_every_exported_name_resolves():
    missing = [name for name in quadcert.__all__ if not hasattr(quadcert, name)]
    assert missing == []
