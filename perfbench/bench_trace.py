"""Span tracer that wraps dirmusic's public functions from outside.

The modules import names from each other directly (``from .signal
import add_awgn``), so wrapping a function only where it is defined
would miss most calls. ``Tracer.install`` therefore replaces every
binding of a target function in every loaded ``dirmusic`` module, and
restores them all on ``uninstall``. Spans stay in memory until
``table`` aggregates them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

from bench_stats import span_table

PACKAGE = "dirmusic"
LAYERS = ("pattern", "manifold", "signal", "estimator", "experiments", "pipeline", "io", "cli")


def _noise_draws(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return "signal.noise_draws", int(getattr(x, "size", 0))


def _csv_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return "io.read_waveform_csv.bytes", os.path.getsize(path)


# Counts recorded at a layer boundary, keyed by span name.
COUNTERS = {"signal.add_awgn": _noise_draws, "io.read_waveform_csv": _csv_bytes}


def public_functions(module):
    """Functions named in ``__all__`` (or, without it, public names)
    that the module itself defines."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.names: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(args, kwargs)
                counts[key] += amount
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding."""
        wrappers = {}
        self.names = ["pipeline.FilterSpec.kernel"]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module):
                self.names.append(f"{layer}.{name}")
                wrappers[fn] = self.wrap(self.names[-1], fn)
        spec_cls = importlib.import_module(f"{PACKAGE}.pipeline").FilterSpec
        self._patch(spec_cls, "kernel", self.wrap(self.names[0], spec_cls.kernel))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def table(self) -> dict:
        """Aggregate: per-name ``[calls, total_s, self_s]``, counts and
        the summed duration of top-level spans."""
        rows, top_level_s = span_table(self.spans)
        return {"rows": rows, "counts": dict(self.counts), "top_level_s": top_level_s}
