"""repro.obs — the unified observability layer.

One subsystem replaces the scattered per-module accounting that grew
through PRs 1-3: a process-wide :class:`MetricsRegistry` of exact work
counters (node visits, pivot selections, kernel intersect/popcount
calls, cache hits/misses, checkpoint writes, degradation events), a
nestable :class:`Tracer` emitting structured JSON-lines spans (phase,
engine, structure, kernel, graph fingerprint, parent span), and an
opt-in :class:`Profiler` for per-phase wall/CPU time and peak modeled
memory.  Every engine (SCT, Pivoter configuration, enumeration,
hybrid), all three structures, every ordering, the forest
build/query path and the
:class:`~repro.runtime.RunController` publish through the module-level
hooks below; ``EXPERIMENTS.md`` cells and ``BENCH_*.json`` gates trace
back to the catalog in ``docs/observability.md``.

**Disabled is free.**  Everything here is off by default; the hooks
cost one boolean check per run or per root (never per recursion node),
the shared :data:`~repro.obs.tracing.NOOP_SPAN` makes ``span()``
allocation-free, and kernel call counts are derived from the engines'
own counters once per root loop, never counted per call.
``tests/test_obs.py`` holds all counts bit-identical on vs. off;
``benchmarks/bench_obs.py`` gates the disabled overhead at <5%.

Typical use::

    from repro import obs

    with obs.collecting() as reg:           # fresh registry, enabled
        result = count_cliques(g, 8)
    reg.total("engine_nodes_visited_total")  # == counters.function_calls

or globally (the CLI's ``--metrics-out`` / ``--trace-out`` /
``--profile`` flags do exactly this)::

    obs.enable(trace=True)
    ... run ...
    obs.get_registry().write_json("metrics.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import IO

from repro.kernels import NAME as _KERNEL, OPS as _KERNEL_OPS
from repro.obs.adapter import timeline_to_records, timeline_to_spans
from repro.obs.profiling import PhaseProfile, Profiler
from repro.obs.registry import (
    COUNTER_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRIC,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    SpanNode,
    Tracer,
    parse_trace_file,
    parse_trace_lines,
    render_spans,
)

__all__ = [
    # registry / tracing / profiling types
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "NOOP_METRIC",
    "Tracer", "SpanNode", "NOOP_SPAN",
    "Profiler", "PhaseProfile",
    "COUNTER_METRICS",
    # trace format helpers
    "parse_trace_lines", "parse_trace_file", "render_spans",
    "timeline_to_spans", "timeline_to_records",
    # global state
    "get_registry", "set_registry", "get_tracer", "set_tracer",
    "get_profiler", "enabled", "enable", "disable", "collecting",
    # hooks the layers call
    "span", "event", "record_counters", "record_run", "record_memo",
    "record_ordering", "kernel_tally", "record_kernel_calls",
    "degradation", "checkpoint_write", "phase",
    "note_memory",
]

# ----------------------------------------------------------------------
# global state (one registry / tracer / profiler per process by default)
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = Tracer(enabled=False)
_PROFILER = Profiler(enabled=False)


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process registry; returns the previous one."""
    global _REGISTRY
    prev, _REGISTRY = _REGISTRY, registry
    return prev


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process tracer; returns the previous one."""
    global _TRACER
    prev, _TRACER = _TRACER, tracer
    return prev


def get_profiler() -> Profiler:
    return _PROFILER


def enabled() -> bool:
    """Whether metrics collection is on (the master switch the engine
    hooks consult)."""
    return _REGISTRY.enabled


def enable(
    *, trace: bool = False, trace_sink: IO[str] | None = None,
    profile: bool = False,
) -> None:
    """Turn on metrics (and optionally tracing / profiling) globally."""
    _REGISTRY.enable()
    if trace or trace_sink is not None:
        _TRACER.enabled = True
        if trace_sink is not None:
            _TRACER.sink = trace_sink
    if profile:
        _PROFILER.enable()


def disable() -> None:
    """Turn every observability channel off (the shipped default)."""
    _REGISTRY.disable()
    _TRACER.enabled = False
    _TRACER.sink = None
    _PROFILER.disable()


@contextmanager
def collecting(*, trace: bool = False, profile: bool = False):
    """Scoped observability: install a fresh enabled registry (and
    tracer/profiler when asked), restore the previous state on exit.

    The test suites' workhorse — measurements are isolated per
    ``with`` block and the global default stays disabled.
    """
    prev_reg = set_registry(MetricsRegistry(enabled=True))
    prev_tr = set_tracer(Tracer(enabled=trace))
    global _PROFILER
    prev_prof = _PROFILER
    _PROFILER = Profiler(enabled=profile)
    try:
        yield _REGISTRY
    finally:
        set_registry(prev_reg)
        set_tracer(prev_tr)
        _PROFILER = prev_prof


# ----------------------------------------------------------------------
# hooks — what the engines / runtime actually call
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """A tracer span (the shared no-op singleton when tracing is off)."""
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """A point-in-time trace event on the innermost active span."""
    _TRACER.event(name, **attrs)


def record_counters(counters, **labels) -> None:
    """Fold a run's :class:`~repro.counting.counters.Counters` into the
    canonical ``engine_*`` registry metrics."""
    _REGISTRY.record_counters(counters, **labels)


def record_run(counters, *, engine: str, structure: str, kernel: str,
               roots: int = 0) -> None:
    """Per-run publish point for the counting engines: canonical
    counters plus the root-task count (so ``engine_roots_total``
    divides work into the scheduler model's task units)."""
    if not _REGISTRY.enabled:
        return
    record_counters(counters, engine=engine, structure=structure,
                    kernel=kernel)
    if roots:
        _REGISTRY.counter("engine_roots_total", engine=engine,
                          structure=structure, kernel=kernel).inc(roots)


def record_memo(hits: int, misses: int, node_hits: int, node_misses: int,
                *, engine: str, structure: str, kernel: str) -> None:
    """Per-root-loop publish point of the SCT memos: roots that reused
    an earlier root's tally and looked-up roots that were counted, then
    subtree lookups (inside one root) that reused an earlier subtree's
    result and those that walked it.  Most loops look up no subtree, so
    the subtree counters are created only once non-zero."""
    if not _REGISTRY.enabled:
        return
    labels = {"engine": engine, "structure": structure, "kernel": kernel}
    _REGISTRY.counter("sct_memo_hits_total", **labels).inc(hits)
    _REGISTRY.counter("sct_memo_misses_total", **labels).inc(misses)
    if node_hits:
        _REGISTRY.counter("sct_node_memo_hits_total", **labels).inc(
            node_hits
        )
    if node_misses:
        _REGISTRY.counter("sct_node_memo_misses_total", **labels).inc(
            node_misses
        )


def kernel_tally() -> list[int] | None:
    """A zeroed kernel-call tally (:data:`repro.kernels.OPS` order) for
    one root loop to fill with :func:`repro.kernels.tally`, or ``None``
    when metrics are off, so the loop tallies nothing."""
    return [0, 0, 0, 0] if _REGISTRY.enabled else None


def record_kernel_calls(calls: list[int] | None) -> None:
    """Per-root-loop publish point of the kernel calls a loop's tally
    derived, as ``kernel_calls_total{kernel, op}``."""
    if calls is None or not _REGISTRY.enabled:
        return
    for op, n in zip(_KERNEL_OPS, calls):
        _REGISTRY.counter("kernel_calls_total", kernel=_KERNEL, op=op).inc(n)


def record_ordering(ordering) -> None:
    """Publish one computed :class:`~repro.ordering.base.Ordering`'s
    work profile (name, rounds, parallel/sequential work units)."""
    if not _REGISTRY.enabled:
        return
    cost = ordering.cost
    name = ordering.name
    _REGISTRY.counter("ordering_computed_total", ordering=name).inc()
    _REGISTRY.counter("ordering_rounds_total", ordering=name).inc(
        cost.num_rounds
    )
    if cost.total_work:
        _REGISTRY.counter("ordering_work_units_total", ordering=name).inc(
            cost.total_work
        )
    if cost.sequential:
        _REGISTRY.counter(
            "ordering_sequential_work_total", ordering=name
        ).inc(cost.sequential)
    _REGISTRY.gauge("ordering_num_vertices", ordering=name).set(
        ordering.num_vertices
    )


def degradation(rung: str, **attrs) -> None:
    """One degradation-ladder event (sampling, enumeration_retry,
    member_spill, worker_retry, ...): counter + trace event."""
    if _REGISTRY.enabled:
        _REGISTRY.counter("runtime_degradations_total", rung=rung).inc()
    _TRACER.event("degradation", rung=rung, **attrs)


def checkpoint_write(*, complete: bool = False) -> None:
    """One checkpoint save (the controller's autosave/abort/final
    writes)."""
    if _REGISTRY.enabled:
        _REGISTRY.counter(
            "runtime_checkpoint_writes_total",
            kind="complete" if complete else "progress",
        ).inc()
    _TRACER.event("checkpoint", complete=complete)


def phase(name: str):
    """A profiler phase context (no-op unless profiling is enabled)."""
    return _PROFILER.phase(name)


def note_memory(peak_bytes: int | float) -> None:
    """Report a peak modeled footprint to the active profile phases."""
    _PROFILER.note_memory(peak_bytes)
