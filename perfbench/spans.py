"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around each public layer call it
makes (name, start, end, parent span, op id), kept in memory, and
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end")

    def __init__(self, sid: int, name: str, op: int, parent: int | None):
        self.id = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, op, parent)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part its children cover."""
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(self.children(span), key=lambda s: s.start):
            if cur_end is None or c.start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c.start, c.end
            else:
                cur_end = max(cur_end, c.end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.duration - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "op": s.op,
                    "parent": s.parent, "start": s.start, "end": s.end,
                }) + "\n")
