"""Spans around the calls into each rieszlab module, recorded from outside.

A Tracer replaces a function at its import site (the module attribute the
caller looks up) with a wrapper that times the call and keeps, per span
name, the call count, the total time, the self time (total minus the time of
spans opened inside it) and any work counters the caller attaches.  Spans
are aggregated in memory per name, with call counts per (parent, name)
edge, so that a run with 10^5 calls stays small; `summary()` gives the tree
for the trace file.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))
    # per-key inclusive times (e.g. one entry per eta or per sweep key)
    by_key: dict = field(default_factory=lambda: defaultdict(list))


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child time]
        self._patched: list[tuple[object, str, object]] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None, key=None):
        """Wrapper of fn recording span `name`.

        count(stats, args, kwargs) adds work counters; key(args, kwargs)
        files the call's inclusive time under a key in stats.by_key.
        """
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                edges[(parent, name)] += 1
                if count is not None:
                    count(stats, args, kwargs)
                if key is not None:
                    stats.by_key[key(args, kwargs)].append(dt)

        return traced

    def patch(self, module, attr: str, name: str, count=None, key=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count=count, key=key))

    def on_restore(self, undo):
        """Run undo() at restore, for replacements patch() cannot express."""
        self._undo.append(undo)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict:
        spans = {
            name: {
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "counters": dict(st.counters),
                "by_key_s": {str(k): sum(v) for k, v in st.by_key.items()},
            }
            for name, st in self.stats.items()
            if st.calls
        }
        edges = [
            {"parent": p or None, "span": c, "calls": k}
            for (p, c), k in sorted(self.edges.items())
        ]
        return {"spans": spans, "edges": edges}
