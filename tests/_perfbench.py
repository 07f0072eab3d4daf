"""Read-only access to the benchmark's own modules under perfbench/.

The benchmark restates some of quadcert's contracts (the tracer's wrap
targets, the seed-1 workload requests) from outside the package. Tests
import those modules through `sys.path` without installing anything, and
drop perfbench's top-level modules from `sys.modules` again afterwards.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
_OWN = ("tracing", "verify", "workloads")  # perfbench's top-level modules


def perfbench_module(name):
    loaded = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        for own in _OWN:
            if own not in loaded:
                sys.modules.pop(own, None)
