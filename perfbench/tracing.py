"""Spans and counts at quadcert's module boundaries, from outside the package.

`cli` and `compression` import functions by name, so a function is wrapped
in every namespace its callers look it up in, not only where it is defined.
Spans (name, start, end, parent, request) stay in memory until the run ends.
The span name's first dotted part is the module that owns the time; a span's
self time is its duration minus that of its child spans. FieldElement
arithmetic is not wrapped (a span per field operation would swamp the run),
so its time is the self time of the layer that calls it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

from verify import BUDGET_MESSAGE

MODULES = ("cli", "profile", "trace_system", "quadric", "compression", "linalg", "gf", "actions")

# (namespace the caller looks the name up in, attribute, span name)
SPANS = (
    ("quadcert.cli", "main", "cli.main"),
    ("quadcert.cli", "canonical_json", "cli.emit"),
    ("quadcert.cli", "field_make", "gf.field_make"),
    ("quadcert.cli", "check_hypotheses", "profile.check_hypotheses"),
    ("quadcert.cli", "binary_profile", "profile.binary_profile"),
    ("quadcert.cli", "solve_block_system", "trace_system.solve"),
    ("quadcert.cli", "evaluate_system", "trace_system.evaluate"),
    ("quadcert.cli", "lift_block_solution", "trace_system.lift"),
    ("quadcert.cli", "sample_quadric_point", "quadric.sample"),
    ("quadcert.cli", "power_sums", "quadric.power_sums"),
    ("quadcert.cli", "on_quadric", "quadric.on_quadric"),
    ("quadcert.cli", "in_small_diagonal", "quadric.in_small_diagonal"),
    ("quadcert.cli", "rank_certificate", "compression.rank_certificate"),
    ("quadcert.cli", "faithfulness_witness", "compression.faithfulness_witness"),
    ("quadcert.cli", "random_affine", "actions.random_affine"),
    ("quadcert.cli", "invariance_report", "actions.invariance_report"),
    ("quadcert.compression", "compression_jacobian", "compression.jacobian"),
    ("quadcert.compression", "tangent_basis", "quadric.tangent_basis"),
    ("quadcert.compression", "in_discriminant", "quadric.in_discriminant"),
    ("quadcert.compression", "rank", "linalg.rank"),
    ("quadcert.compression", "restricted_rank", "linalg.restricted_rank"),
    ("quadcert.quadric", "in_discriminant", "quadric.in_discriminant"),
    ("quadcert.quadric", "on_quadric", "quadric.on_quadric"),
    ("quadcert.quadric", "power_sums", "quadric.power_sums"),
    ("quadcert.quadric", "kernel_basis", "linalg.kernel_basis"),
    ("quadcert.actions", "affine_act", "actions.affine_act"),
    ("quadcert.actions", "on_quadric", "quadric.on_quadric"),
    ("quadcert.actions", "power_sums", "quadric.power_sums"),
    ("quadcert.trace_system", "field_make", "gf.field_make"),
    ("quadcert.gf", "FieldCtx.tables", "gf.tables"),
)
# Called once per sampler try: counted, not timed.
COUNTED = (("quadcert.quadric", "complete_quadric_pair", "quadric.complete_pair"),)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _after(self, name: str, args, result) -> None:
        counts = self.counts
        if name in ("linalg.rank", "linalg.restricted_rank", "linalg.kernel_basis"):
            counts["linalg.rows_in"] += args[0].rows
        elif name == "compression.jacobian":
            counts["compression.jacobian.entries"] += result.rows * result.cols
        elif name == "cli.emit":
            counts["cli.emit.bytes"] += len(result.encode())
        elif name == "trace_system.solve" and result.ctx.k == 2:
            counts["trace_system.solve.ext_field"] += 1

    def _raised(self, name: str, exc: BaseException) -> None:
        if name == "quadric.sample" and type(exc).__name__ == "NoPointFoundError":
            self.counts["quadric.sample.no_point"] += 1
        elif name == "trace_system.solve" and BUDGET_MESSAGE in str(exc):
            self.counts["trace_system.solve.budget_errors"] += 1

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(entry)
            self.counts[calls] += 1
            entry[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(name, exc)
                raise
            finally:
                entry[2] = clock()
                stack.pop()
            self._after(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts, calls = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for targets, make in ((SPANS, self._span), (COUNTED, self._counted)):
            for module, attr, name in targets:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                setattr(owner, attr, make(name, original))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time by span name, summed over the run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inside in zip(self.spans, child):
            out[name] += end - start - inside
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "request": request}) + "\n")
