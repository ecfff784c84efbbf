"""Process-wide metrics registry — the single source of truth for work.

Every engine, ordering, forest and runtime path in this
codebase does *countable* work: recursion nodes visited, fused
intersect/popcount calls, cache hits, checkpoint writes, degradation
events.  Before this module each layer kept its own ad-hoc tally (or
none); the registry unifies them behind three metric kinds:

* :class:`Counter` — monotone exact totals (Python ints stay ints, so
  astronomically large work counts never round);
* :class:`Gauge` — last-or-max observed values (peak memory, deepest
  recursion);
* :class:`Histogram` — power-of-two bucketed distributions (per-root
  work, span durations).

Metrics are identified by ``(name, labels)``; labels are sorted
key=value pairs, so ``counter("kernel_calls_total", kernel="bigint",
op="intersect_count")`` and the same call with labels swapped hit the
same cell.  The registry is **disabled by default**: a disabled
registry hands out shared no-op metric singletons, so the counting hot
paths pay (at most) one ``enabled`` check per run or per root — never
per recursion node.  The invariant suite (``tests/test_obs.py``) holds
counts bit-identical with the registry on vs. off, and
``benchmarks/bench_obs.py`` gates the disabled-path overhead at <5%.

The canonical metric catalog lives in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_METRIC",
    "COUNTER_METRICS",
]

#: Canonical mapping of :class:`~repro.counting.counters.Counters`
#: fields onto registry counter names — the one place the old private
#: accounting vocabulary and the metric catalog are tied together.
COUNTER_METRICS: dict[str, str] = {
    "function_calls": "engine_nodes_visited_total",
    "leaves": "engine_leaves_total",
    "early_terminations": "engine_early_exits_total",
    "subgraph_builds": "engine_subgraph_builds_total",
    "set_op_words": "engine_set_op_words_total",
    "index_lookups": "engine_index_lookups_total",
    "build_words": "engine_build_words_total",
}

#: Counters fields published as max-gauges rather than sums.
COUNTER_GAUGES: dict[str, str] = {
    "max_depth": "engine_max_depth",
    "peak_subgraph_bytes": "engine_peak_subgraph_bytes",
}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing exact total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """A point-in-time value with a max-tracking convenience."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def set(self, v: int | float) -> None:
        self.value = v

    def max(self, v: int | float) -> None:
        if v > self.value:
            self.value = v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """Power-of-two bucketed distribution with exact count/sum/min/max.

    ``buckets[i]`` counts observations ``x`` with
    ``2**(i-1) <= x < 2**i`` (bucket 0 holds ``x < 1``) — enough
    resolution for work distributions without per-observation storage.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum: int | float = 0
        self.min: int | float | None = None
        self.max: int | float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, v: int | float) -> None:
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        b = max(0, int(v).bit_length()) if v >= 1 else 0
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"n={self.count} mean={self.mean:.3g}>"
        )


class _NoopMetric:
    """Shared do-nothing stand-in handed out by a disabled registry.

    One singleton serves as counter, gauge and histogram: every method
    is a constant no-op, so instrument-then-check-enabled code can
    fetch handles unconditionally.
    """

    __slots__ = ()

    def inc(self, n: int | float = 1) -> None:
        pass

    def set(self, v: int | float) -> None:
        pass

    def max(self, v: int | float) -> None:
        pass

    def observe(self, v: int | float) -> None:
        pass


NOOP_METRIC = _NoopMetric()


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, labels)``.

    Parameters
    ----------
    enabled:
        A disabled registry returns :data:`NOOP_METRIC` from every
        accessor and records nothing; flipping :meth:`enable` /
        :meth:`disable` at run boundaries is the supported pattern
        (handles are fetched per run, never cached across runs).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded metric (keeps the enabled flag)."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        if not self.enabled:
            return NOOP_METRIC
        key = (cls.__name__, name, _label_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, _label_key(labels))
            self._metrics[key] = m
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> int | float:
        """The exact value of one counter/gauge cell (0 if absent)."""
        for kind in ("Counter", "Gauge"):
            m = self._metrics.get((kind, name, _label_key(labels)))
            if m is not None:
                return m.value
        return 0

    def total(self, name: str) -> int | float:
        """Sum of a counter across every label combination."""
        return sum(
            m.value
            for (kind, n, _), m in self._metrics.items()
            if kind == "Counter" and n == name
        )

    def collect(self) -> Iterator[Counter | Gauge | Histogram]:
        """Every live metric, in insertion order."""
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # bridges from the legacy per-module accounting
    # ------------------------------------------------------------------
    def record_counters(self, counters, **labels) -> None:
        """Fold one :class:`~repro.counting.counters.Counters` into the
        canonical ``engine_*`` metrics (the engines' per-run publish
        point; see :data:`COUNTER_METRICS`)."""
        if not self.enabled:
            return
        d = counters.as_dict()
        for field, metric in COUNTER_METRICS.items():
            v = d[field]
            if v:
                self.counter(metric, **labels).inc(v)
        for field, metric in COUNTER_GAUGES.items():
            self.gauge(metric, **labels).max(d[field])
        self.counter("engine_runs_total", **labels).inc()
        self.counter("engine_work_units_total", **labels).inc(d["work"])

    def merge_snapshot(self, snap: dict) -> None:
        """Fold an :meth:`as_dict` snapshot from another registry into
        this one — the parallel runtime's metrics bridge.

        Worker processes record into their own per-task registries and
        ship ``as_dict()`` back with each chunk result; the parent
        merges them here so ``engine_*``/``kernel_*`` counter totals
        stay exact under parallelism.  Counters add, gauges keep the
        max (every mergeable gauge in the catalog is a peak), and
        histograms fold count/sum/min/max and bucket tallies.  No-op
        when this registry is disabled.
        """
        if not self.enabled:
            return
        for entry in snap.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snap.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).max(entry["value"])
        for entry in snap.get("histograms", ()):
            h = self.histogram(entry["name"], **entry["labels"])
            h.count += entry["count"]
            h.sum += entry["sum"]
            if entry["min"] is not None:
                if h.min is None or entry["min"] < h.min:
                    h.min = entry["min"]
            if entry["max"] is not None:
                if h.max is None or entry["max"] > h.max:
                    h.max = entry["max"]
            for b, n in entry.get("buckets", {}).items():
                b = int(b)
                h.buckets[b] = h.buckets.get(b, 0) + n

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready snapshot: ``{kind: [{name, labels, ...}]}``."""
        out: dict[str, list] = {"counters": [], "gauges": [], "histograms": []}
        for m in self.collect():
            entry: dict = {"name": m.name, "labels": dict(m.labels)}
            if isinstance(m, Histogram):
                entry.update(
                    count=m.count, sum=m.sum, min=m.min, max=m.max,
                    mean=m.mean,
                    buckets={str(k): v for k, v in sorted(m.buckets.items())},
                )
                out["histograms"].append(entry)
            elif isinstance(m, Gauge):
                entry["value"] = m.value
                out["gauges"].append(entry)
            else:
                entry["value"] = m.value
                out["counters"].append(entry)
        return out

    def write_json(self, path: str | os.PathLike[str]) -> None:
        """Dump the snapshot to ``path`` (the CLI's ``--metrics-out``)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} metrics={len(self._metrics)}>"
