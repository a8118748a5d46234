"""Span tracing installed from outside the library.

Every `cyclicff` module imports its collaborators by name
(`from .numerics import adam_step`), so a call from `network` to
`adam_step` looks the name up in `cyclicff.network`, not in
`cyclicff.numerics`. `Tracer.install` therefore replaces the function on
every module of the package that binds it, and `uninstall` puts the
originals back.

A span's self time is its duration minus the durations of the spans it
called directly, so the self times of all spans plus the benchmark's own
code between top-level calls add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("cyclicff", "cyclicff.data", "cyclicff.numerics",
           "cyclicff.neuron", "cyclicff.graph", "cyclicff.network",
           "cyclicff.training", "cyclicff.cli")


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Aggregates spans in memory; one instance per traced run."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self._children_s: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter=None):
        """Return `fn` recording a span called `name`.

        `counter(*args, **kwargs)` returns a dict of work counts for one
        call; it is evaluated before the call because some callees mutate
        their arguments.
        """
        stack = self._children_s
        stats = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    stats.counts[key] += value
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if stack:
                    stack[-1] += dt

        return traced

    def install(self, name: str, original, counter=None) -> int:
        """Wrap every module-level binding of `original` in the package.

        Returns how many bindings were replaced.
        """
        wrapped = self._wrap(name, original, counter)
        n = 0
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
                    n += 1
        return n

    def install_method(self, name: str, cls, attr: str):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_total_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())
