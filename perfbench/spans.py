"""In-memory span tracer that wraps program functions from the outside.

Every wrapped name is replaced on the module (or class) that looks it up at
call time, so ``cyclehom.pipeline.build_walk_weights`` records the calls the
pipeline makes.  A span holds its name, start, end, parent span and, where
a size function is given, a table size derived from the return value.  No
program file is touched; the wrappers are removed on ``uninstall``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter


class Tracer:
    """Records spans while ``active``; names that no longer exist are kept
    in ``missing`` instead of failing the run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.missing: set[str] = set()
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def _resolve(self, dotted: str):
        """(owner, attribute) for a dotted name, or None if it is gone."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr, None)
                if owner is None:
                    return None
            if hasattr(owner, parts[-1]):
                return owner, parts[-1]
            return None
        return None

    def _replace(self, owner, attr: str, wrapper) -> None:
        static = inspect.getattr_static(owner, attr)
        self._patched.append((owner, attr, static))
        if isinstance(static, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def wrap(self, dotted: str, size=None) -> None:
        """Record a span around every call of ``dotted`` while active."""
        found = self._resolve(dotted)
        if found is None:
            self.missing.add(dotted)
            return
        owner, attr = found
        original = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            record = [dotted, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(result)
            return result

        self._replace(owner, attr, traced)

    def count(self, dotted: str, key: str) -> None:
        """Count calls of ``dotted`` under ``key`` without recording spans.

        For methods called millions of times, where a span each would
        swamp the figures.
        """
        found = self._resolve(dotted)
        if found is None:
            self.missing.add(dotted)
            return
        owner, attr = found
        original = getattr(owner, attr)
        calls = self.calls

        def counted(*args):
            if self.active:
                calls[key] += 1
            return original(*args)

        self._replace(owner, attr, counted)

    def span(self, name: str):
        """A context manager recording one span around benchmark code."""
        return _ManualSpan(self, name)

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._patched):
            setattr(owner, attr, static)
        self._patched.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded since the last take, and reset."""
        spans, calls = list(self.spans), Counter(self.calls)
        self.spans.clear()
        self.calls.clear()
        return spans, calls


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t.stack[-1] if t.stack else -1, None])
        t.stack.append(self.index)
        t.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


def self_times(spans: list[list], transparent: frozenset = frozenset()) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    A span named in ``transparent`` counts as part of its parent: its
    duration is not subtracted, and its own children are charged to the
    nearest ancestor that is not transparent.
    """
    owner = list(range(len(spans)))
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name in transparent and parent >= 0:
            owner[i] = owner[parent]
    own = [end - start for _, start, end, _, _ in spans]
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 or name in transparent:
            continue
        own[owner[parent]] -= end - start
    return own


def dump(path: str, spans: list[list]) -> None:
    """Write spans as one JSON list of [name, start, end, parent, size]."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
