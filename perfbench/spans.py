"""In-process span tracer wrapped around topicaudit's public functions.

The tracer rebinds every public function of the measured modules, in
every ``topicaudit`` module that holds a reference to it: a name bound by
``from .scoring import js_divergence`` is patched as well as the defining
module, and so are functions held in tuples inside module-level dicts
(``cli.COMMANDS``).  Spans (name, parent, start, end) stay in memory until
the run ends.  Nothing inside the program is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules measured, by short name; ``demo`` generates the workload and is
# left out.
LAYERS = ("corpus", "features", "classifiers", "attribution", "profiling",
          "uncertainty", "scoring", "report", "pipeline", "cli", "config")


def span_name(module: str, function: str) -> str:
    """Stage commands are named ``pipeline.<stage>`` wherever defined."""
    if function.startswith("cmd_"):
        return f"pipeline.{function[4:]}"
    return f"{module}.{function}"


class Tracer:
    """Spans as ``[name, parent_index, start, end]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open = [-1]

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s summed over its spans."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[3] - span[2]
            entry["self_s"] += own
        return dict(out)

    def subtree_self_sum(self, root: int, own: list[float]) -> float:
        """Self times ``own`` summed over a span and all its descendants."""
        inside = {root}
        total = own[root]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][1] in inside:
                inside.add(i)
                total += own[i]
        return total

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], p, round(s, 9), round(e, 9)]
                for n, p, s, e in self.spans]
        path.write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end"], "names": names,
             "spans": rows, "counters": dict(self.counters)},
            separators=(",", ":")) + "\n", encoding="utf-8")


class Instrumented:
    """Context manager: every public function of ``LAYERS`` traced, every
    reference to it rebound, all of it undone on exit."""

    def __init__(self, tracer: Tracer, counters: dict):
        self.tracer = tracer
        self.counters = counters
        self._undo: list = []

    def __enter__(self):
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"topicaudit.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    span = span_name(layer, name)
                    wrapped[id(obj)] = (obj, self.tracer.wrap(
                        span, obj, self.counters.get(span)))

        def replacement(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, mod in list(sys.modules.items()):
            if modname != "topicaudit" and not modname.startswith("topicaudit."):
                continue
            for name, value in list(vars(mod).items()):
                new = replacement(value)
                if new is not None:
                    self._undo.append((setattr, mod, name, value))
                    setattr(mod, name, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, tuple) and any(
                                replacement(v) for v in item):
                            self._undo.append(
                                (dict.__setitem__, value, key, item))
                            value[key] = tuple(replacement(v) or v
                                               for v in item)
        return self.tracer

    def __exit__(self, *exc):
        for restore, target, key, value in reversed(self._undo):
            restore(target, key, value)
        self._undo.clear()
        return False
