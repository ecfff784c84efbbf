"""Nestable span tracing with a JSON-lines wire format.

A *span* is one timed region of the pipeline — a counting run, an
ordering computation, a forest build, a degradation retry — carrying
structured attributes (phase, engine, structure, kernel, graph
fingerprint) and an automatic parent link, so a trace reconstructs the
run as a tree rather than a flat log.  The paper's evaluation
attributes cost to phases (ordering vs. counting, Figs. 6-8) and
structures (Fig. 9); spans are how a serving deployment gets the same
attribution per request.

Wire format — one JSON object per line, two record types::

    {"type": "span", "id": 2, "parent": 1, "name": "count",
     "attrs": {"engine": "sct", "kernel": "bigint"},
     "t0": 0.01, "t1": 0.42}
    {"type": "event", "span": 2, "name": "degradation",
     "attrs": {"rung": "sampling"}, "t": 0.17}

Span records are emitted at span *exit* (children before parents), so a
truncated trace loses only the spans that never finished — exactly the
crash-forensics property a line-oriented format exists for.
:func:`parse_trace_lines` rebuilds the tree and rejects malformed input
with line-numbered :class:`~repro.errors.TraceFormatError`\\ s,
mirroring the graph loader's ``GraphFormatError`` discipline.

The disabled fast path hands out a single shared :data:`NOOP_SPAN`
whose enter/exit/event do nothing — no allocation, no clock read.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.errors import TraceFormatError

__all__ = [
    "Tracer",
    "Span",
    "SpanNode",
    "NOOP_SPAN",
    "parse_trace_lines",
    "parse_trace_file",
    "render_spans",
]


class _NoopSpan:
    """Shared do-nothing span for the disabled path (reentrant)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One live traced region; use via ``with tracer.span(...)``."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "attrs",
                 "t0", "t1")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0

    def __enter__(self) -> "Span":
        self.t0 = self.tracer.clock()
        self.tracer._stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.t1 = self.tracer.clock()
        stack = self.tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._emit({
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "t0": self.t0,
            "t1": self.t1,
        })

    def event(self, name: str, **attrs) -> None:
        """Attach a point-in-time event to this span."""
        self.tracer._emit({
            "type": "event",
            "span": self.span_id,
            "name": name,
            "attrs": attrs,
            "t": self.tracer.clock(),
        })


class Tracer:
    """Collects span/event records in memory and/or streams them.

    Parameters
    ----------
    enabled:
        Disabled tracers return :data:`NOOP_SPAN` from :meth:`span`.
    sink:
        Optional text stream; each record is written as one JSON line
        as it is emitted (the CLI's ``--trace-out``).
    clock:
        Monotonic-clock callable (injectable for deterministic tests).
    """

    def __init__(
        self,
        enabled: bool = True,
        sink: IO[str] | None = None,
        clock=time.perf_counter,
    ) -> None:
        self.enabled = bool(enabled)
        self.sink = sink
        self.clock = clock
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1

    def span(self, name: str, **attrs):
        """Open a nestable span (parent inferred from the active stack)."""
        if not self.enabled:
            return NOOP_SPAN
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return Span(self, span_id, parent, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit an event on the innermost active span (or parentless)."""
        if not self.enabled:
            return
        self._emit({
            "type": "event",
            "span": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": attrs,
            "t": self.clock(),
        })

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record) + "\n")

    def reset(self) -> None:
        self.records.clear()
        self._stack.clear()
        self._next_id = 1

    def dump_lines(self) -> list[str]:
        """The collected records as JSON lines (tests / late writes)."""
        return [json.dumps(r) for r in self.records]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state} records={len(self.records)}>"


# ----------------------------------------------------------------------
# parsing — JSON lines back into span trees
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One reconstructed span with its children and events."""

    span_id: int
    name: str
    attrs: dict
    t0: float
    t1: float
    children: list["SpanNode"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _fail(lineno: int, msg: str) -> TraceFormatError:
    return TraceFormatError(f"trace line {lineno}: {msg}")


def parse_trace_lines(lines: Iterable[str]) -> list[SpanNode]:
    """Rebuild span trees from JSON-lines records.

    Children appear before parents on the wire (exit-order emission),
    so the tree is stitched in a second pass.  Raises
    :class:`~repro.errors.TraceFormatError` with the 1-based line
    number for malformed JSON, missing/ill-typed fields, duplicate span
    ids, or unknown record types.  Events for spans that never closed
    (truncated trace) are tolerated and dropped; spans whose parent
    record is missing become roots.
    """
    nodes: dict[int, SpanNode] = {}
    parents: dict[int, int | None] = {}
    pending_events: list[tuple[int | None, dict]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise _fail(lineno, "record is not a JSON object")
        rtype = rec.get("type")
        if rtype == "span":
            try:
                span_id = int(rec["id"])
                name = rec["name"]
                t0 = float(rec["t0"])
                t1 = float(rec["t1"])
            except (KeyError, TypeError, ValueError) as exc:
                raise _fail(lineno, f"bad span record ({exc!r})") from exc
            if not isinstance(name, str):
                raise _fail(lineno, "span name must be a string")
            attrs = rec.get("attrs", {})
            if not isinstance(attrs, dict):
                raise _fail(lineno, "span attrs must be an object")
            parent = rec.get("parent")
            if parent is not None:
                try:
                    parent = int(parent)
                except (TypeError, ValueError) as exc:
                    raise _fail(lineno, "span parent must be an id") from exc
            if span_id in nodes:
                raise _fail(lineno, f"duplicate span id {span_id}")
            nodes[span_id] = SpanNode(span_id, name, attrs, t0, t1)
            parents[span_id] = parent
        elif rtype == "event":
            attrs = rec.get("attrs", {})
            name = rec.get("name")
            if not isinstance(name, str):
                raise _fail(lineno, "event name must be a string")
            if not isinstance(attrs, dict):
                raise _fail(lineno, "event attrs must be an object")
            span_ref = rec.get("span")
            if span_ref is not None:
                try:
                    span_ref = int(span_ref)
                except (TypeError, ValueError) as exc:
                    raise _fail(lineno, "event span must be an id") from exc
            pending_events.append(
                (span_ref, {"name": name, "attrs": attrs,
                            "t": rec.get("t")})
            )
        else:
            raise _fail(lineno, f"unknown record type {rtype!r}")
    for span_ref, ev in pending_events:
        if span_ref is not None and span_ref in nodes:
            nodes[span_ref].events.append(ev)
    roots: list[SpanNode] = []
    for span_id, node in nodes.items():
        parent = parents[span_id]
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda c: (c.t0, c.span_id))
    roots.sort(key=lambda c: (c.t0, c.span_id))
    return roots


def parse_trace_file(path) -> list[SpanNode]:
    """Parse a ``--trace-out`` file back into span trees."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace_lines(fh)


def render_spans(roots: list[SpanNode], *, indent: str = "  ") -> str:
    """ASCII rendering of span trees — the one report path both the
    CLI trace and the simulated-machine timeline adapter go through
    (see :func:`repro.obs.adapter.timeline_to_spans`)."""
    lines: list[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(node.attrs.items()))
        lines.append(
            f"{indent * depth}{node.name} [{node.duration:.6f}s]"
            + (f" {attrs}" if attrs else "")
        )
        for ev in node.events:
            ev_attrs = " ".join(
                f"{k}={v}" for k, v in sorted(ev["attrs"].items())
            )
            lines.append(
                f"{indent * (depth + 1)}! {ev['name']}"
                + (f" {ev_attrs}" if ev_attrs else "")
            )
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
