"""Spans recorded from outside psdsparse, for the benchmark's traced runs.

The traced run replaces names that each psdsparse module imported from the
layer below it (``greedy._eigvalsh``, ``cli.load_instance``,
``verify.logsumexp``, ...) with a timing wrapper. Nothing under ``src/``
changes; spans stop at module boundaries. A name that a later version of the
program no longer has is recorded as absent instead of failing the run.

Every span is kept in memory as (name, start, end, parent, attrs) and written
out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str, describe=None):
        """``fn`` with a span around each call; ``describe(args, kwargs, result)`` adds attrs."""

        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if describe is not None:
                # a changed signature or return type loses the attrs, not the run
                try:
                    self.attrs[i] = describe(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    self.attrs[i] = {"describe_error": repr(exc)}
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attr, span_name, describe)`` targets for the duration of the block."""
        saved = []
        try:
            for module, attr, name, describe in targets:
                label = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                if not hasattr(module, attr):
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, describe))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, lo: int, hi: int) -> tuple[list[float], list[float]]:
        """Total and self time of spans lo..hi-1; self time is total minus direct children."""
        total = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += total[i - lo]
        return total, [t - c for t, c in zip(total, child)]

    def write(self, path, header: dict) -> None:
        """Write every span as one JSON document: names are interned, times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        spans = [
            [code[self.names[i]], round(self.starts[i] - t0, 9), round(self.ends[i] - t0, 9),
             self.parents[i], self.attrs[i]]
            for i in range(len(self.names))
        ]
        doc = dict(header, span_fields=["name", "start_s", "end_s", "parent", "attrs"],
                   names=table, absent=self.absent, spans=spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
