"""Small report-formatting and timing helpers for the experiment harness."""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "Table",
    "geometric_mean",
    "fmt_seconds",
    "fmt_count",
    "fmt_rate",
    "time_best",
    "time_samples",
    "time_interleaved",
    "run_with_metrics",
    "metrics_summary_lines",
    "write_json_artifact",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, matching the paper's summary statistic."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def fmt_seconds(s: float | None) -> str:
    """Seconds with the paper's precision conventions."""
    if s is None:
        return "-"
    if s >= 1000:
        return f"{s:,.0f}"
    if s >= 10:
        return f"{s:.1f}"
    if s >= 0.01:
        return f"{s:.2f}"
    return f"{s:.4f}"


def fmt_count(c: int | None) -> str:
    """Exact counts with thousands separators (``-`` for missing)."""
    return "-" if c is None else f"{c:,}"


def fmt_rate(per_second: float) -> str:
    """A throughput (ops or words per second) with a metric suffix."""
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if per_second >= scale:
            return f"{per_second / scale:.2f}{suffix}/s"
    return f"{per_second:.1f}/s"


def time_samples(
    fn: Callable[[], Any], *, number: int = 10, repeats: int = 5
) -> list[float]:
    """Per-repeat mean seconds per call of ``fn`` (``repeats`` samples).

    The full sample list is what the run store keeps: statistical
    regression detection needs the distribution, not just the min.
    ``min(time_samples(...))`` is exactly :func:`time_best`.
    """
    if number < 1 or repeats < 1:
        raise ValueError("number and repeats must be >= 1")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return samples


def time_interleaved(
    variants: dict[str, Callable[[], Any]],
    calls: dict[str, list[Callable[[], Any]]],
    *,
    number: int = 1,
    repeats: int = 5,
) -> dict[str, list[float]]:
    """Per-repeat seconds of each variant, the variants taking turns.

    ``variants`` maps a name to a context factory and ``calls`` maps it
    to its calls (lists of one length).  Each repeat runs call ``i`` of
    every variant, ``number`` times inside its context, for each ``i``
    in turn, in an order rotated from call to call (A B, B A, ...), and
    sums each variant's timed calls.  A shared host's speed drifts on
    the scale of one call, so a slow phase lands on every variant alike
    and repeat ``i`` of each is comparable: read the per-repeat pairs'
    ratios through their median.
    """
    names = list(variants)
    samples: dict[str, list[float]] = {name: [] for name in names}
    turn = 0
    for _ in range(repeats):
        spent = dict.fromkeys(names, 0.0)
        for i in range(len(calls[names[0]])):
            for j in range(len(names)):
                name = names[(turn + j) % len(names)]
                call = calls[name][i]
                with variants[name]():
                    t0 = time.perf_counter()
                    for _ in range(number):
                        call()
                    spent[name] += time.perf_counter() - t0
            turn += 1
        for name in names:
            samples[name].append(spent[name] / number)
    return samples


def time_best(
    fn: Callable[[], Any], *, number: int = 10, repeats: int = 5
) -> float:
    """Best-of-``repeats`` mean seconds per call of ``fn``.

    The minimum over repeats is the standard microbench estimator: it
    discards scheduler noise and cache-warming effects, which only ever
    inflate a measurement.
    """
    return min(time_samples(fn, number=number, repeats=repeats))


def run_with_metrics(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn(*args, **kwargs)`` under a fresh, enabled metrics registry.

    Returns ``(result, registry)``.  This is the bench harness's bridge
    to the observability layer: instead of reaching into engines'
    private counter dicts, experiments read exact work totals back
    through the canonical metric names —
    ``registry.total("engine_nodes_visited_total")``,
    ``registry.value("forest_cache_hits_total")`` and friends (catalog
    in ``docs/observability.md``).  The registry is installed only for
    the duration of the call (``obs.collecting``), so parallel
    experiments never mix tallies and the process-global registry is
    left untouched.
    """
    from repro import obs

    with obs.collecting() as registry:
        result = fn(*args, **kwargs)
    return result, registry


def metrics_summary_lines(registry) -> list[str]:
    """Human-readable one-liners for the registry totals a benchmark
    report cares about (exact work, not wall clock)."""
    lines = []
    for label, metric in (
        ("recursion nodes visited", "engine_nodes_visited_total"),
        ("SCT leaves reached", "engine_leaves_total"),
        ("bitset words touched", "engine_set_op_words_total"),
        ("work units (instruction proxy)", "engine_work_units_total"),
        ("kernel calls", "kernel_calls_total"),
        ("counting runs", "engine_runs_total"),
        ("forest cache hits", "forest_cache_hits_total"),
        ("forest cache misses", "forest_cache_misses_total"),
        ("checkpoint writes", "runtime_checkpoint_writes_total"),
        ("degradation events", "runtime_degradations_total"),
    ):
        v = registry.total(metric)
        if v:
            lines.append(f"{label}: {v:,.0f} ({metric})")
    return lines


def write_json_artifact(
    path: str | Path, payload: dict[str, Any], *, registry: Any | None = None
) -> Path:
    """Write a benchmark result dict as a JSON artifact (with metadata).

    Passing ``registry`` embeds its full
    :meth:`~repro.obs.MetricsRegistry.as_dict` snapshot under a
    ``"metrics"`` key, so artifacts carry the exact-work record
    alongside the timings they were measured with.
    """
    out = dict(payload)
    out.setdefault("meta", {}).update(
        python=platform.python_version(),
        machine=platform.machine(),
    )
    if registry is not None:
        out["metrics"] = registry.as_dict()
    path = Path(path)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class Table:
    """A printable fixed-width table (the bench harness's output)."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())
        print()
