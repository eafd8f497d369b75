"""In-memory span tracer for the traced benchmark pass.

A span is (id, name, start, end, parent, op).  Spans are recorded by
rebinding module attributes of pbessel to timing wrappers for the
duration of one traced operation; the originals are restored afterwards,
so untraced operations run the unmodified program.  A target attribute
that no longer exists marks its span absent: the span's metrics are
reported as null, every other span is still recorded.
"""

from __future__ import annotations

import importlib
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans and per-span counters in memory.

    ``targets`` maps a span name to the (module, attribute) pairs that are
    rebound while tracing, and ``hooks`` maps a span name to a function
    ``hook(args, kwargs, result, counters)`` that adds counts measured at
    that boundary.
    """

    def __init__(self, targets: dict, hooks: dict, alloc_spans: frozenset = frozenset()):
        self.hooks = hooks
        self.alloc_spans = alloc_spans
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.failed_hooks: set[str] = set()
        self.absent: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._resolved: dict[str, list] = {}
        for name, pairs in targets.items():
            found, missing = [], []
            for mod_name, attr in pairs:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    missing.append(f"{mod_name}.{attr}")
                    continue
                if hasattr(mod, attr):
                    found.append((mod, attr))
                else:
                    missing.append(f"{mod_name}.{attr}")
            if missing:
                self.absent[name] = missing
            else:
                self._resolved[name] = found

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        alloc = name in self.alloc_spans

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            measure_alloc = alloc and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters[self._op][f"{name}.alloc_bytes"] += peak
                self._stack.pop()
                self.spans[sid] = (sid, name, t0, t1, parent, self._op)
            if hook is not None:
                try:
                    hook(args, kwargs, result, self.counters[self._op])
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    self.failed_hooks.add(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def operation(self, op: int):
        """Trace one operation: rebind every present target, restore on exit."""
        self._op = op
        saved = []
        try:
            for name, pairs in self._resolved.items():
                for mod, attr in pairs:
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, original))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self._stack.clear()

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> {calls, total_s, self_s}."""
        child = defaultdict(float)
        for sid, name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
        for sid, name, t0, t1, parent, op in self.spans:
            rec = out[op][name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[sid]
        return out

    def dump(self) -> dict:
        """Spans as columns (times relative to the first span), for a JSON file."""
        base = self.spans[0][2] if self.spans else 0.0
        return {
            "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [sid, name, round(t0 - base, 9), round(t1 - base, 9), parent, op]
                for sid, name, t0, t1, parent, op in self.spans
            ],
            "absent": self.absent,
            "failed_hooks": sorted(self.failed_hooks),
        }
