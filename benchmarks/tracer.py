"""In-memory spans around the benchmark's calls into hpscale.

A span is [id, parent id, name, pass id, start, end], times from
time.perf_counter. The part of a name before the first dot is the layer
(cli, laws, surface, fitting, stats, synth, svgplot); "pass" and "cmd.*"
spans group the calls of one pass and one command. A disabled tracer
runs the same calls and records nothing, which gives the untraced
baseline for the tracing overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "laws", "surface", "fitting", "stats", "synth", "svgplot")


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.pass_id = None
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self._stack: list[list] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[(self.pass_id, name)] += n

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, self.pass_id, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "pass", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
