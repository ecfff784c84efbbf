"""Trace wire-format round-trips, malformed-line fuzzing, and the
timeline adapter.

The JSON-lines span format must (1) round-trip bit-faithfully through
``parse_trace_lines`` / ``render_spans``, (2) reject every malformed
line with a line-numbered :class:`~repro.errors.TraceFormatError` —
never a bare ``KeyError``/``TypeError`` — mirroring the graph loader's
``GraphFormatError`` discipline, and (3) accept the simulated machine's
Gantt timelines through :mod:`repro.obs.adapter`, so both trace kinds
render through one report path.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.corpus import GRAPHS
from repro import obs
from repro.core import count_cliques
from repro.errors import ReproError, TraceFormatError
from repro.obs import (
    NOOP_SPAN,
    SpanNode,
    Tracer,
    parse_trace_file,
    parse_trace_lines,
    render_spans,
    timeline_to_records,
    timeline_to_spans,
)
from repro.parallel import DynamicScheduler, StaticScheduler
from repro.parallel.trace import simulate_timeline


def _tick_clock():
    """Deterministic monotonic clock: 1.0, 2.0, 3.0, ..."""
    counter = itertools.count(1)
    return lambda: float(next(counter))


# ======================================================================
# the disabled fast path
# ======================================================================
def test_disabled_tracer_hands_out_noop_singleton():
    tr = Tracer(enabled=False)
    s = tr.span("anything", attr=1)
    assert s is NOOP_SPAN
    assert tr.span("other") is s  # shared — no allocation per span
    assert tr.records == []


def test_noop_span_is_reentrant_and_silent():
    with NOOP_SPAN as a:
        with NOOP_SPAN as b:
            assert a is b is NOOP_SPAN
            b.event("ignored", x=1)


def test_disabled_tracer_event_records_nothing():
    tr = Tracer(enabled=False)
    tr.event("degradation", rung="sampling")
    assert tr.records == []


def test_obs_span_returns_noop_when_disabled():
    assert obs.span("x") is NOOP_SPAN


# ======================================================================
# emission semantics
# ======================================================================
def test_span_nesting_assigns_parents():
    tr = Tracer(clock=_tick_clock())
    with tr.span("root"):
        with tr.span("child"):
            with tr.span("grandchild"):
                pass
        with tr.span("sibling"):
            pass
    by_name = {r["name"]: r for r in tr.records}
    assert by_name["root"]["parent"] is None
    assert by_name["child"]["parent"] == by_name["root"]["id"]
    assert by_name["grandchild"]["parent"] == by_name["child"]["id"]
    assert by_name["sibling"]["parent"] == by_name["root"]["id"]


def test_spans_emitted_at_exit_children_before_parents():
    tr = Tracer(clock=_tick_clock())
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [r["name"] for r in tr.records] == ["inner", "outer"]


def test_event_attaches_to_innermost_span():
    tr = Tracer(clock=_tick_clock())
    with tr.span("outer"):
        with tr.span("inner") as inner:
            tr.event("via-tracer", n=1)
            inner.event("via-span", n=2)
    events = [r for r in tr.records if r["type"] == "event"]
    assert all(e["span"] == inner.span_id for e in events)


def test_span_records_error_attribute_on_exception():
    tr = Tracer(clock=_tick_clock())
    with pytest.raises(ValueError):
        with tr.span("failing"):
            raise ValueError("boom")
    (rec,) = tr.records
    assert rec["attrs"]["error"] == "ValueError"


def test_sink_streams_one_json_object_per_line():
    sink = io.StringIO()
    tr = Tracer(sink=sink, clock=_tick_clock())
    with tr.span("a", k=4):
        tr.event("e")
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)  # every line is standalone JSON


def test_tracer_reset_clears_state():
    tr = Tracer(clock=_tick_clock())
    with tr.span("a"):
        pass
    tr.reset()
    assert tr.records == []
    with tr.span("b") as s:
        assert s.span_id == 1  # ids restart


# ======================================================================
# parse round-trips
# ======================================================================
def test_dump_lines_roundtrip_rebuilds_tree():
    tr = Tracer(clock=_tick_clock())
    with tr.span("root", engine="sct"):
        with tr.span("child-a"):
            tr.event("degradation", rung="sampling")
        with tr.span("child-b"):
            pass
    (root,) = parse_trace_lines(tr.dump_lines())
    assert root.name == "root"
    assert root.attrs == {"engine": "sct"}
    assert [c.name for c in root.children] == ["child-a", "child-b"]
    assert root.children[0].events[0]["name"] == "degradation"
    assert root.duration == root.t1 - root.t0 > 0


def test_children_sorted_by_start_time():
    lines = [
        json.dumps({"type": "span", "id": 3, "parent": 1, "name": "late",
                    "t0": 5.0, "t1": 6.0}),
        json.dumps({"type": "span", "id": 2, "parent": 1, "name": "early",
                    "t0": 1.0, "t1": 2.0}),
        json.dumps({"type": "span", "id": 1, "parent": None, "name": "root",
                    "t0": 0.0, "t1": 7.0}),
    ]
    (root,) = parse_trace_lines(lines)
    assert [c.name for c in root.children] == ["early", "late"]


def test_span_with_missing_parent_becomes_root():
    lines = [
        json.dumps({"type": "span", "id": 9, "parent": 404,
                    "name": "orphan", "t0": 0.0, "t1": 1.0}),
    ]
    (root,) = parse_trace_lines(lines)
    assert root.name == "orphan"


def test_event_for_unclosed_span_is_dropped():
    # A truncated trace: the event's span record never made it out.
    lines = [
        json.dumps({"type": "event", "span": 7, "name": "checkpoint",
                    "attrs": {}, "t": 1.0}),
        json.dumps({"type": "span", "id": 1, "parent": None, "name": "a",
                    "t0": 0.0, "t1": 2.0}),
    ]
    (root,) = parse_trace_lines(lines)
    assert root.events == []


def test_parentless_event_is_dropped():
    lines = [
        json.dumps({"type": "event", "span": None, "name": "stray",
                    "attrs": {}, "t": 0.5}),
    ]
    assert parse_trace_lines(lines) == []


def test_blank_lines_are_skipped():
    lines = ["", "  ",
             json.dumps({"type": "span", "id": 1, "parent": None,
                         "name": "a", "t0": 0.0, "t1": 1.0}),
             ""]
    assert len(parse_trace_lines(lines)) == 1


def test_parse_trace_file_roundtrip(tmp_path):
    sink_path = tmp_path / "trace.jsonl"
    with open(sink_path, "w", encoding="utf-8") as sink:
        tr = Tracer(sink=sink, clock=_tick_clock())
        with tr.span("root"):
            with tr.span("child"):
                pass
    (root,) = parse_trace_file(sink_path)
    assert root.name == "root"
    assert root.children[0].name == "child"


def test_render_spans_tree_and_event_lines():
    tr = Tracer(clock=_tick_clock())
    with tr.span("root", engine="sct"):
        with tr.span("child"):
            tr.event("degradation", rung="sampling")
    text = render_spans(parse_trace_lines(tr.dump_lines()))
    lines = text.splitlines()
    assert lines[0].startswith("root ")
    assert "engine=sct" in lines[0]
    assert lines[1].startswith("  child")
    assert lines[2].strip() == "! degradation rung=sampling"


# ======================================================================
# malformed lines — typed, line-numbered rejection
# ======================================================================
@pytest.mark.parametrize("bad,fragment", [
    ("{not json", "line 1"),
    ('"a bare string"', "line 1"),
    ('[1, 2, 3]', "line 1"),
    ('{"type": "mystery"}', "line 1"),
    ('{"type": "span"}', "line 1"),
    ('{"type": "span", "id": 1, "name": "a", "t0": "zero", "t1": 1}',
     "line 1"),
    ('{"type": "span", "id": 1, "name": 5, "t0": 0, "t1": 1}', "line 1"),
    ('{"type": "span", "id": 1, "name": "a", "t0": 0, "t1": 1, '
     '"attrs": [1]}', "line 1"),
    ('{"type": "span", "id": 1, "parent": "x", "name": "a", "t0": 0, '
     '"t1": 1}', "line 1"),
    ('{"type": "event", "span": 1, "name": 7, "attrs": {}}', "line 1"),
    ('{"type": "event", "span": "x", "name": "e", "attrs": {}}', "line 1"),
    ('{"type": "event", "span": 1, "name": "e", "attrs": 3}', "line 1"),
])
def test_malformed_line_raises_trace_format_error(bad, fragment):
    with pytest.raises(TraceFormatError, match=fragment):
        parse_trace_lines([bad])


def test_duplicate_span_id_rejected_with_line_number():
    good = json.dumps({"type": "span", "id": 1, "parent": None,
                       "name": "a", "t0": 0.0, "t1": 1.0})
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace_lines([good, good])


def test_error_line_number_is_one_based_and_counts_blanks():
    lines = ["", json.dumps({"type": "span", "id": 1, "parent": None,
                             "name": "a", "t0": 0.0, "t1": 1.0}),
             "{broken"]
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace_lines(lines)


def test_trace_format_error_is_a_repro_error():
    assert issubclass(TraceFormatError, ReproError)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet='{}[]":,0123456789abct espan\n', max_size=200))
def test_trace_fuzz_never_crashes(text):
    """Arbitrary garbage either parses or raises TraceFormatError —
    never a bare KeyError/TypeError/ValueError."""
    try:
        roots = parse_trace_lines(text.splitlines())
    except TraceFormatError:
        return
    for root in roots:
        assert isinstance(root, SpanNode)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, 400), data=st.data())
def test_truncated_valid_trace_fuzz(cut, data):
    """Any prefix-truncation of a valid trace (the crash-forensics
    case) parses or is rejected cleanly, and parsed spans only lose
    ancestors — names stay a subset of the original."""
    tr = Tracer(clock=_tick_clock())
    with tr.span("root"):
        for i in range(3):
            with tr.span(f"child-{i}"):
                tr.event("e", i=i)
    full = "\n".join(tr.dump_lines())
    prefix = full[: min(cut, len(full))]
    try:
        roots = parse_trace_lines(prefix.splitlines())
    except TraceFormatError:
        return
    names = {"root", "child-0", "child-1", "child-2"}

    def walk(node):
        assert node.name in names
        for c in node.children:
            walk(c)

    for r in roots:
        walk(r)


# ======================================================================
# the timeline adapter — one report path for both trace kinds
# ======================================================================
def _timeline():
    work = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    return simulate_timeline(work, threads=3, scheduler=DynamicScheduler())


def test_timeline_to_spans_one_root_per_thread():
    tl = _timeline()
    roots = timeline_to_spans(tl)
    assert [r.name for r in roots] == [f"thread-{t}" for t in range(3)]
    busy = tl.busy_times()
    for t, root in enumerate(roots):
        assert root.attrs["thread"] == t
        # Conservation: the chunk spans hold exactly the thread's work.
        assert sum(c.duration for c in root.children) == pytest.approx(
            busy[t]
        )
        assert all(c.name == "chunk" for c in root.children)


def test_timeline_records_children_emitted_before_parents():
    records = timeline_to_records(_timeline())
    seen: set[int] = set()
    for rec in records:
        if rec["parent"] is not None:
            assert rec["parent"] not in seen  # parent not yet emitted
        seen.add(rec["id"])


def test_timeline_records_roundtrip_through_parser():
    tl = _timeline()
    lines = [json.dumps(r) for r in timeline_to_records(tl)]
    roots = parse_trace_lines(lines)
    direct = timeline_to_spans(tl)
    assert [r.name for r in roots] == [r.name for r in direct]
    for parsed, built in zip(roots, direct):
        assert len(parsed.children) == len(built.children)
        assert parsed.t1 == built.t1
    rendered = render_spans(roots)
    assert "thread-0" in rendered and "chunk" in rendered


def test_timeline_methods_delegate_to_adapter():
    tl = simulate_timeline(
        np.array([2.0, 2.0]), threads=2, scheduler=StaticScheduler()
    )
    assert [r.name for r in tl.to_spans()] == ["thread-0", "thread-1"]
    parsed = parse_trace_lines(json.dumps(r) for r in tl.to_span_records())
    assert len(parsed) == 2


# ======================================================================
# engine traces end to end
# ======================================================================
def test_pipeline_trace_shape():
    _, g = GRAPHS[0]
    with obs.collecting(trace=True):
        count_cliques(g, 4)
        lines = obs.get_tracer().dump_lines()
    (root,) = parse_trace_lines(lines)
    assert root.name == "pivotscale.run"
    child_names = [c.name for c in root.children]
    assert "pivotscale.ordering" in child_names
    assert "sct.count" in child_names
    sct = root.children[child_names.index("sct.count")]
    assert sct.attrs["engine"] == "sct"
    assert sct.attrs["kernel"] == "bigint"
    assert "graph" in sct.attrs  # fingerprint present when tracing
    rendered = render_spans([root])
    assert rendered.splitlines()[0].startswith("pivotscale.run")


def test_trace_spans_absent_without_trace_flag():
    _, g = GRAPHS[0]
    with obs.collecting():  # metrics only
        count_cliques(g, 4)
        assert obs.get_tracer().records == []
