"""The benchmark tracer's wrap targets still exist.

`perfbench/tracing.py` wraps quadcert functions by (module, attribute) name
from outside the package. A rename inside the package would only surface as
a crash of a traced benchmark run; this test reads the two target lists
(without installing anything) and resolves every pair.
"""

import importlib

import pytest

from _perfbench import perfbench_module


def _targets():
    tracing = perfbench_module("tracing")
    return [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
