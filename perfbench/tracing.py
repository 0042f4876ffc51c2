"""Span tracing of polarlasso's layers from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
wrapper, in every polarlasso namespace that holds a reference to it (modules
bind each other's functions with `from .x import f`, so patching only the
defining module would miss most calls).  Each wrapper records a span (name,
start, end, parent) and a call count.  Aggregates are kept for every span;
the raw spans are kept in memory down to `KEEP_DEPTH` levels below the
operation span and written out by the caller at the end of the run.

A span's self time is its duration minus the time covered by its child
spans.  Hooks receive (counters, args, result, parent name) and turn call
arguments or results into counters, so ratios are measured where the work
happens.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time

# the layers named in the benchmark; `special` is deliberately untraced (its
# coefficient helpers are called tens of times per direction, and no metric
# needs them)
LAYERS = ("problem", "_moments", "radial", "partition", "lasso", "shifted", "mcmc", "cli")
# every namespace that binds a layer's function: the layers and the package
NAMESPACES = ("polarlasso",) + tuple(f"polarlasso.{m}" for m in LAYERS)
KEEP_DEPTH = 3


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.counters: collections.Counter = collections.Counter()
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # (op name, layer) -> self seconds
        self.layer_self: collections.Counter = collections.Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, name, start, child_s]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._op = None

    # --- spans -------------------------------------------------------------
    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        dur = end - start
        own = dur - child_s
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += own
        self.layer_self[(self._op, layer_of(name))] += own
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self._stack) <= KEEP_DEPTH:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    def run_op(self, op_name: str, fn):
        """Run one benchmark operation under a root span named `bench.<op>`."""
        self._op = op_name
        frame = self._open("bench." + op_name)
        try:
            return fn()
        finally:
            self._close(frame)
            self._op = None

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    # --- installation ------------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.parent_name()
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hook(self.counters, args, result, parent)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        originals = {}
        for short in LAYERS:
            mod = importlib.import_module(f"polarlasso.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{short.lstrip('_')}.{attr}", obj))
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
