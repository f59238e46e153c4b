"""Spans around sectorsched's public functions, installed from outside.

The traced run replaces each layer's public functions in the module
namespaces where callers look them up (``sectorsched.cli.equalize``,
``sectorsched.simulate.check_trace``, ...) with wrappers that record a span:
name, start, end, parent span and phase ("setup" or "op").  Spans stay in
memory; the per-layer metrics are computed from them when the run ends.
Nothing in the package changes, and the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable

# Span names that make up each layer; a layer's busy time counts only spans
# with no ancestor in the same layer, so nested calls are not counted twice.
LAYERS = {
    "equalize": {"equalize"},
    "loads": {"loads"},
    "simulate": {"simulate.edf", "simulate.partition"},
    "simulate.edf": {"simulate.edf"},
    "simulate.partition": {"simulate.partition"},
    "check_trace": {"simulate.check_trace"},
    "revisit": {"simulate.revisit"},
    "exact": {"exact"},
    "exact.check": {"exact.check"},
    "io.read": {"io.read"},
    "io.write": {"io.write"},
    "cli": {"cli"},
    "generate": {"generate"},
    "validate": {"model.validate"},
}


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        # Each span is [name, start, end, parent index, phase].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        if self.phase == "op":
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str | Callable, fn: Callable,
             after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``after`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def patch(self, module_name: str, attr: str, name, after=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ analysis

    def busy(self, layer: str, phase: str = "op") -> float:
        """Wall time inside a layer, nested calls of the layer counted once."""
        names = LAYERS[layer]
        total = 0.0
        for span in self.spans:
            if span[0] not in names or span[4] != phase:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def self_time(self, layer: str, phase: str = "op") -> float:
        """Time in a layer's spans not covered by their child spans."""
        names = LAYERS[layer]
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans)
               if s[0] in names and s[4] == phase}
        for span in self.spans:
            if span[3] in own:
                own[span[3]] -= span[2] - span[1]
        return sum(own.values())


def _policy_name(args, kwargs) -> str:
    policy = kwargs.get("policy", args[1] if len(args) > 1 else None)
    variant = getattr(policy, "variant", policy)
    return "simulate.edf" if variant == "edf" else "simulate.partition"


def _count_leftovers(tracer, args, kwargs, partition) -> None:
    tags = list(partition.provenance.values())
    tracer.count("equalize.tasks", len(tags))
    tracer.count("equalize.leftover", sum(tag == "leftover" for tag in tags))


def _count_trace(tracer, args, kwargs, trace) -> None:
    tracer.count("simulate.records", len(trace.records))
    tracer.count("simulate.passes", trace.n_passes)


def _count_exact(tracer, args, kwargs, solution) -> None:
    tracer.count("exact.calls", 1)
    tracer.count("exact.proven", 1 if solution.optimal else 0)


def _count_bytes(tracer, args, kwargs, result) -> None:
    path = kwargs.get("path") or next(
        a for a in reversed(args) if isinstance(a, (str, os.PathLike)))
    tracer.count("io.bytes_written", os.path.getsize(path))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points where their callers find them."""
    p = tracer.patch
    for mod in ("sectorsched.equalize", "sectorsched.cli"):
        p(mod, "equalize", "equalize", _count_leftovers)
    for mod, attr in [("sectorsched.loads", "load_report"), ("sectorsched.cli", "load_report"),
                      ("sectorsched.loads", "sector_targets"),
                      ("sectorsched.equalize", "sector_targets"),
                      ("sectorsched.loads", "check_partition"),
                      ("sectorsched.simulate", "check_partition"),
                      ("sectorsched.loads", "build_partition"),
                      ("sectorsched.equalize", "build_partition"),
                      ("sectorsched.cli", "build_partition"),
                      ("sectorsched.loads", "broadside_baseline"),
                      ("sectorsched.cli", "broadside_baseline")]:
        p(mod, attr, "loads")
    for mod in ("sectorsched.simulate", "sectorsched.cli"):
        p(mod, "simulate", _policy_name, _count_trace)
        p(mod, "revisit_stats", "simulate.revisit")
    p("sectorsched.simulate", "check_trace", "simulate.check_trace")
    for mod in ("sectorsched.exact", "sectorsched.cli"):
        p(mod, "exact_min_passes", "exact", _count_exact)
    p("sectorsched.exact", "check_assignment", "exact.check")
    for mod in ("sectorsched.generate", "sectorsched.cli"):
        p(mod, "generate", "generate")
    for mod in ("sectorsched.model", "sectorsched.equalize", "sectorsched.exact",
                "sectorsched.io"):
        p(mod, "validate_scenario", "model.validate")
    for attr in ("read_scenario", "read_partition", "read_trace", "read_load_report"):
        p("sectorsched.io", attr, "io.read")
    for attr in ("write_scenario", "write_partition", "write_load_report", "write_trace",
                 "write_revisit_stats", "write_comparison"):
        p("sectorsched.io", attr, "io.write", _count_bytes)
    p("sectorsched.cli", "main", "cli")


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: op-phase figures per op, set-up figures per set-up."""
    c = tracer.counts
    per_op = max(ops, 1)
    busy = tracer.busy
    return {
        "equalize.busy_s": (busy("equalize") / per_op, "s/op"),
        "equalize.leftover_ratio": (
            c.get("equalize.leftover", 0.0) / c["equalize.tasks"]
            if c.get("equalize.tasks") else 0.0, "ratio"),
        "simulate.edf.busy_s": (busy("simulate.edf") / per_op, "s/op"),
        "simulate.partition.busy_s": (busy("simulate.partition") / per_op, "s/op"),
        "simulate.self_s": (tracer.self_time("simulate") / per_op, "s/op"),
        "simulate.check_trace.busy_s": (busy("check_trace") / per_op, "s/op"),
        "simulate.records": (c.get("simulate.records", 0.0) / per_op, "count/op"),
        "simulate.passes": (c.get("simulate.passes", 0.0) / per_op, "count/op"),
        "simulate.revisit.busy_s": (busy("revisit") / per_op, "s/op"),
        "loads.busy_s": (busy("loads") / per_op, "s/op"),
        "exact.busy_s": (busy("exact") / per_op, "s/op"),
        "exact.proven_ratio": (
            c.get("exact.proven", 0.0) / c["exact.calls"]
            if c.get("exact.calls") else 0.0, "ratio"),
        "exact.check.busy_s": (busy("exact.check") / per_op, "s/op"),
        "io.read_busy_s": (busy("io.read") / per_op, "s/op"),
        "io.write_busy_s": (busy("io.write") / per_op, "s/op"),
        "io.bytes_written": (c.get("io.bytes_written", 0.0) / per_op, "B/op"),
        "cli.self_s": (tracer.self_time("cli") / per_op, "s/op"),
        "generate.busy_s": (busy("generate", "setup") / max(setups, 1), "s/setup"),
        "model.validate.busy_s": (busy("validate", "setup") / max(setups, 1), "s/setup"),
    }

