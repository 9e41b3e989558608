"""Spans around the benchmark's calls into the library's modules.

A span is a name such as ``topcode.solve_dnsp``, a tag that tells apart
calls of one function (``c12`` against ``small``), the span that caused it,
and its start and end.  Spans stay in memory while a pass runs and are
written out once the pass ends.  Self time is a span's duration minus the
time its children cover; the benchmark is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List


class NoTrace:
    """The untraced path: calls go straight through."""

    traced = False

    def call(self, name: str, fn: Callable, *args, tag: str = ""):
        return fn(*args)

    def span(self, name: str, tag: str = ""):
        return nullcontext()

    def retag_last(self, tag: str) -> None:
        pass


class Tracer:
    """Records one span per call, parented by the enclosing span; `clock`
    gives the time in seconds."""

    traced = True

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        # each span: [name, tag, parent index or -1, start s, end s]
        self.spans: List[list] = []
        self._open: List[int] = []
        self._last = -1

    def _enter(self, name: str, tag: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, tag, parent, self.clock(), 0.0])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][4] = self.clock()
        self._open.pop()
        self._last = idx

    def call(self, name: str, fn: Callable, *args, tag: str = ""):
        idx = self._enter(name, tag)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        idx = self._enter(name, tag)
        try:
            yield
        finally:
            self._exit(idx)

    def retag_last(self, tag: str) -> None:
        """Change the tag of the span that closed most recently."""
        self.spans[self._last][1] = tag

    def self_s(self) -> List[float]:
        """Self time of every span, in span order."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def write(self, path: str) -> None:
        """Write every span, with its self time, as one JSON document."""
        own = self.self_s()
        rows = [
            {
                "id": i,
                "name": s[0],
                "tag": s[1],
                "parent": s[2],
                "start_s": s[3],
                "end_s": s[4],
                "self_s": own[i],
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per (name, tag): span count, total seconds and self seconds."""
        own = self.self_s()
        out: Dict[str, Dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            for key in (s[0], s[0] + "#" + s[1]):
                row = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["s"] += s[4] - s[3]
                row["self_s"] += own[i]
        return out
