"""Spans around the calls into each qwitness layer, taken from outside the package.

Each traced function is replaced, for the duration of a traced pass, at every
module attribute of the package bound to it. That catches both the call sites
that imported it by name (`from .cover import min_set_cover` in `pipeline`) and
the calls a module makes to its own functions (`paradox_detect` calling
`min_set_cover` inside `cover`). A traced name the package no longer defines is
reported with zero calls; it never fails the benchmark.

Spans are kept in memory as (function, start, end, parent span, report id) and
written out when the run ends. A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("cli", "pipeline", "sequences", "witnesses", "cover", "quantum", "classify")

# `cli.main` is the root span of a report; the rest are the public entry
# points of each layer. `number_theory` and `errors` are reached only from
# inside `sequences` and `witnesses` and count as part of them.
TRACED = (
    ("cli", "main"),
    ("cli", "build_config"),
    ("cli", "emit_json"),
    ("pipeline", "analyze"),
    ("pipeline", "cross_check"),
    ("sequences", "build_bitstring"),
    ("sequences", "satisfying_set"),
    ("witnesses", "relation_composite"),
    ("witnesses", "relation_mobius"),
    ("witnesses", "relation_recurrence"),
    ("witnesses", "relation_identity"),
    ("witnesses", "coverage_check"),
    ("cover", "min_set_cover"),
    ("cover", "exact_cover"),
    ("cover", "unique_witness_assignment"),
    ("cover", "paradox_detect"),
    ("cover", "compressibility_verdict"),
    ("quantum", "prepare_superposition"),
    ("quantum", "apply_marking"),
    ("quantum", "grover_trace"),
    ("quantum", "quantum_count"),
    ("quantum", "post_select_flag"),
    ("classify", "classify"),
    ("classify", "schmidt"),
)

PACKAGE = "qwitness"


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals on exit."""

    def __init__(self, traced=TRACED):
        self.traced = tuple(traced)
        self.spans: list = []
        self.report_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[pos] = (index, start, end, parent, self.report_id)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.missing = []
        for index, (layer, name) in enumerate(self.traced):
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(home, name, None)
            if not callable(original):
                self.missing.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Totals over all spans: calls and inclusive seconds per function,
        self seconds per layer."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent, _report in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = {f"{layer}.{name}": 0 for layer, name in self.traced}
        seconds = {key: 0.0 for key in calls}
        self_s = {layer: 0.0 for layer in LAYERS}
        for pos, (index, start, end, _parent, _report) in enumerate(self.spans):
            layer, name = self.traced[index]
            calls[f"{layer}.{name}"] += 1
            seconds[f"{layer}.{name}"] += end - start
            self_s[layer] += end - start - child_time[pos]
        return {"calls": calls, "seconds": seconds, "self_s": self_s}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, parent, report in self.spans:
                layer, name = self.traced[index]
                fh.write(json.dumps({
                    "name": f"{layer}.{name}", "start": start, "end": end,
                    "parent": parent, "report": report,
                }) + "\n")
