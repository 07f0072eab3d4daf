"""The benchmark tracer's wrap targets still exist.

`perfbench/tracing.py` wraps quadcert functions by (module, attribute) name
from outside the package. A rename inside the package would only surface as
a crash of a traced benchmark run; this test reads the two target lists
(without installing anything) and resolves every pair.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    loaded = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        return [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "verify"):  # perfbench's own top-level modules
            if name not in loaded:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
