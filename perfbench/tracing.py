"""Spans around the public functions of each qkdsim layer, recorded from outside.

`Tracer.install()` replaces every public module-level function of the layer
modules, under every name any qkdsim module holds it by, with a wrapper that
records a span: (name, start, end, parent span, job id).  Calls routed through
`protocol`, `adversary` and `analysis` are caught because those modules hold
the qudit functions by their own names.  `uninstall()` puts the originals back.
Spans stay in memory; `write()` dumps them as JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("qudit", "protocol", "adversary", "analysis", "serialize", "cli")


def _dim_bytes(args, kwargs, result):
    # computed, not measured: read and write one complex128 per amplitude
    return {"bytes": 2 * 16 * args[0].layout.dim}


def _branch_records(args, kwargs, result):
    blocks = result.blocks
    return {"key_assignments": len(blocks),
            "records": sum(len(per_key) for per_key in blocks.values())}


# counters derived from arguments or results at the layer boundary
COUNTERS = {
    "qudit.apply_gate": _dim_bytes,
    "qudit.measurement_branches": lambda a, k, r: {"outcomes": len(r)},
    "protocol.run_session": lambda a, k, r: {"rounds": len(r)},
    "protocol.run_session_branches": lambda a, k, r: {"branches": len(r)},
    "adversary.eve_conditional_states": _branch_records,
    "analysis.feasibility_search": lambda a, k, r: {"sequences": r.enumeration_count,
                                                    "candidates": len(r.candidates)},
    "serialize.dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}


def public_functions():
    """(span name, function) for each public function defined in a layer module."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"qkdsim.{layer}"]
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found.append((f"{layer}.{name}", obj))
    return found


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; the wrappers and the benchmark's job spans use this."""
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            spans[index] = (name, start, end, parent, self.job)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counters[name][key] += value
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "qkdsim" and not module_name.startswith("qkdsim."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict:
        """Per span name: calls and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, parent, job), covered in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        return dict(totals)

    def counts(self) -> dict:
        """Everything in this trace that must repeat exactly between runs."""
        calls = {name: entry["calls"] for name, entry in self.totals().items()}
        return {"calls": calls,
                "counters": {name: dict(values) for name, values in self.counters.items()}}

    def write(self, handle, pass_index):
        """One JSON array per span: pass, index, name, start, end, parent index, job id."""
        for index, span in enumerate(self.spans):
            handle.write(json.dumps([pass_index, index, *span]) + "\n")
