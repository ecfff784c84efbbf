"""What runs inside the fresh child processes: set-up probes and the
measured run (plain or traced).

Each child prints human-readable context lines and, last, one JSON line
of raw results that :mod:`run` turns into the reported metrics.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import timing
from timing import Sample, median, peak_rss_mb, tail_percentile, timed
from spans import Tracer
from workloads import KERNEL_OPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"

#: A run measures ``--seconds`` of normalized time (seconds on the
#: nominal machine), so it holds about the same number of ops however
#: fast the host runs at the moment, and the tail percentile it reports
#: does not shift with host speed.  It keeps going until it has this
#: many timed ops (a traced run: until its count window is traced), so
#: the tail percentile (10 samples beyond it) always exists.
MIN_OPS = 20
#: ...but never past this, so a run always ends within its time limit.
HARD_CAP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.import_ms": "ms",
    "graph.csr_build_ms": "ms",
    "ordering.select_ms": "ms",
    "ordering.compute_ms": "ms",
    "ordering.directionalize_ms": "ms",
    "ordering.rounds": "count",
    "ordering.work_units": "count",
    "structures.build_ms": "ms",
    "structures.build_words": "count",
    "sct.count_roots_ms": "ms",
    "sct.recursion_ms": "ms",
    "sct.nodes": "count",
    "sct.leaves": "count",
    "sct.early_exits": "count",
    "sct.set_op_words": "count",
    "sct.ns_per_node": "ns",
    **{f"kernels.calls.{op}": "count" for op in KERNEL_OPS},
    "simulate.model_ms": "ms",
    "core.unattributed_ms": "ms",
    "parallel.count_ms": "ms",
    "parallel.shm_publish_ms": "ms",
    "parallel.plan_chunks_ms": "ms",
    "parallel.chunks": "count",
    "parallel.serial_ms": "ms",
    "parallel.efficiency": "ratio",
    "parallel.overhead_ms": "ms",
    "parallel.worker_retries": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "forest.build_ms": "ms",
    "forest.leaves": "count",
    "forest.bytes": "bytes",
    "forest.count_all_ms": "ms",
    "forest.per_vertex_ms": "ms",
    "forest.per_edge_ms": "ms",
    "dynamic.apply_ms": "ms",
    "dynamic.normalize_ms": "ms",
    "dynamic.edit_graph_ms": "ms",
    "dynamic.dirty_roots_ms": "ms",
    "dynamic.roots_dirty": "count",
    "dynamic.roots_recomputed": "count",
    "dynamic.useful_recompute_ratio": "ratio",
    "dynamic.edits_applied": "count",
    "dynamic.edits_skipped": "count",
    "obs.trace_overhead": "ratio",
}

#: Span names whose durations become ``<name>_ms`` layer timings.
_SPAN_TIMINGS = (
    "ordering.select", "ordering.compute", "ordering.directionalize",
    "simulate.model", "parallel.shm_publish", "parallel.plan_chunks",
)


def _setup(w) -> dict:
    """Run the workload's timed set-up; return its parts in seconds."""
    parts: dict[str, Sample] = {}

    def clock(name, fn):
        out, s = timed(fn)
        parts[name] = s
        return out

    w.setup(clock)
    import repro

    src = ROOT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {src}")
    out = {name: {"norm": s.norm_s, "raw": s.wall_s}
           for name, s in parts.items()}
    out["total"] = {"norm": sum(s.norm_s for s in parts.values()),
                    "raw": sum(s.wall_s for s in parts.values())}
    return out


def _new_workload(name: str, seed: int, log):
    w = WORKLOADS[name](seed)
    w.generate()
    for line in w.describe_inputs():
        log(f"input {line}")
    w.compute_references()
    return w


def probe(name: str, seed: int) -> dict:
    """One set-up sample in a fresh process."""
    w = WORKLOADS[name](seed)
    w.generate()
    return {"setup": _setup(w)}


def _run_op(w, i: int) -> tuple[bool, list[Sample]]:
    """One timed op (checked outside the timed region)."""
    try:
        return w.timed_op(i)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        print(f"op {i} raised {type(exc).__name__}: {exc}", flush=True)
        return False, []


def _run_traced(w, i: int, tr: Tracer, op_id: int):
    """One traced op; returns ``(ok, Sample, values, self_time_s)``."""
    try:
        (out, values), s = timed(w.traced_op, i, tr, op_id)
        ok = w.check(i, out)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        print(f"traced op {i} raised {type(exc).__name__}: {exc}", flush=True)
        return False, None, None, 0.0
    op_span = next(sp for sp in reversed(tr.spans)
                   if sp.op == op_id and sp.name == "op")
    for sp in tr.children(op_span):
        if sp.name in _SPAN_TIMINGS:
            values[sp.name + "_s"] = values.get(sp.name + "_s", 0.0) \
                + sp.duration
    values["op_s"] = op_span.duration
    return ok, s, values, tr.self_time(op_span)


def measure(name: str, seed: int, seconds: float, trace: bool,
            log=print) -> dict:
    """The measured run: set-up, one warm-up op, then a closed loop."""
    w = _new_workload(name, seed, log)
    setup = _setup(w)
    setup_metrics = w.setup_metrics()
    attempted = failed = 0

    def account(ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not ok

    account(_run_op(w, 0)[0])  # warm-up, untimed but checked
    parts: list[list[Sample]] = []
    traced: list[tuple[Sample, dict, float]] = []
    tr = Tracer()
    start = time.perf_counter()
    measured = 0.0  # normalized seconds of timed calls
    i = 1
    while True:
        done = len(traced) if trace else len(parts)
        need = w.count_window if trace else MIN_OPS
        if (measured >= seconds and done >= need) \
                or time.perf_counter() - start >= HARD_CAP_S:
            break
        gc.collect()
        ok, samples = _run_op(w, i)
        account(ok)
        if samples:
            parts.append(samples)
            measured += sum(s.norm_s for s in samples)
        i += 1
        if trace:
            # A traced run alternates plain and traced ops; the traced
            # op takes the next input, so the stream keeps moving.
            gc.collect()
            ok, s, values, self_s = _run_traced(w, i, tr, i)
            account(ok)
            if s is not None:
                traced.append((s, values, self_s))
                measured += s.norm_s
            i += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "setup": setup,
        "peak_rss_mb": peak_rss_mb(),
        "children_peak_rss_mb": peak_rss_mb(children=True),
        "op_norm_ms": [sum(s.norm_s for s in p) * 1e3 for p in parts],
        "op_raw_ms": [sum(s.wall_s for s in p) * 1e3 for p in parts],
        "part_norm_ms": [[s.norm_s * 1e3 for s in p] for p in parts],
        "ref_ms": [x * timing.REF_ITERS * 1e3 for p in parts for s in p
                   for x in s.iter_times_s],
        "extra": setup_metrics,
    }
    if trace:
        result["layers"] = _layers(w, traced, result["op_norm_ms"])
        path = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
        tr.write(path)
        log(f"trace: {len(tr.spans)} spans written to {path}")
    return result


def _layers(w, traced, untraced_ms: list[float]) -> dict:
    """Per-layer metrics from the traced ops: timings are medians of
    normalized span times; exact counts average the first
    ``w.count_window`` traced ops, which every run of a seed replays
    identically."""
    out: dict[str, float] = {}
    if not traced:
        return out
    timings: dict[str, list[float]] = {}
    for s, values, self_s in traced:
        f = s.factor
        for key, v in values.items():
            if key.endswith("_s"):
                timings.setdefault(key[:-2] + "_ms", []).append(v * f * 1e3)
        timings.setdefault("core.unattributed_ms", []).append(
            self_s * f * 1e3)
        nodes = values.get("sct.nodes", 0)
        if "sct.recursion_s" in values and nodes:
            timings.setdefault("sct.ns_per_node", []).append(
                values["sct.recursion_s"] * f * 1e9 / nodes)
    for key, vals in timings.items():
        out[key] = median(vals)
    window = [values for _, values, _ in traced[:w.count_window]]
    for key in window[0]:
        if not key.endswith("_s") and key != "parallel.worker_peak_rss_mb":
            out[key] = statistics.fmean(v[key] for v in window)
    if "parallel.count_ms" in out:
        pool, serial = out["parallel.count_ms"], out["parallel.serial_ms"]
        out["parallel.efficiency"] = serial / (2 * pool)
        out["parallel.overhead_ms"] = pool - serial / 2
        out["parallel.worker_peak_rss_mb"] = max(
            v["parallel.worker_peak_rss_mb"] for _, v, _ in traced)
    if "dynamic.roots_recomputed" in out:
        recomputed = sum(v["dynamic.roots_recomputed"] for v in window)
        changed = sum(v["dynamic.roots_changed"] for v in window)
        out["dynamic.useful_recompute_ratio"] = changed / max(1, recomputed)
        del out["dynamic.roots_changed"]
    if untraced_ms:
        out["obs.trace_overhead"] = out["op_ms"] / median(untraced_ms) - 1.0
    del out["op_ms"]
    return out


def summarize(raw: dict, setups: list[dict], trace: bool, log=print) -> dict:
    """Turn the child results into the reported metrics (and log the
    context a reader needs to judge them)."""
    setup_norm = [s["total"]["norm"] for s in setups]
    setup_raw = [s["total"]["raw"] for s in setups]
    log(f"setup: {len(setups)} fresh-process samples, median "
        f"{median(setup_norm):.4f} s normalized ({median(setup_raw):.4f} s "
        f"raw); normalized [{', '.join(f'{v:.4f}' for v in setup_norm)}]")
    lat = raw["op_norm_ms"]
    log(f"ops: {raw['attempted']} attempted, {raw['failed']} failed, "
        f"error_rate {raw['failed'] / max(1, raw['attempted']):.6f}")
    refs = raw["ref_ms"]
    if refs:
        log(f"reference loop ({timing.REF_ITERS} iterations): "
            f"{len(refs)} observations, median {median(refs):.3f} ms, min "
            f"{min(refs):.3f}, max {max(refs):.3f} (nominal "
            f"{timing.NOMINAL_ITER_S * timing.REF_ITERS * 1e3:.1f} ms)")
    if trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(raw.get("layers", {}))
        for key, part in (("graph.import_ms", "import"),
                          ("graph.csr_build_ms", "csr_build"),
                          ("forest.build_ms", "forest_build")):
            vals = [s[part]["norm"] * 1e3 for s in setups if part in s]
            if vals:
                metrics[key] = median(vals)
        metrics.update(raw["extra"])
        unknown = set(metrics) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
        return {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}
    p, tail = tail_percentile(lat)
    _, raw_tail = tail_percentile(raw["op_raw_ms"])
    log(f"latency: {len(lat)} samples; p50 {median(lat):.3f} ms normalized "
        f"({median(raw['op_raw_ms']):.3f} ms raw); tail = p{p} "
        f"{tail:.3f} ms ({raw_tail:.3f} ms raw)")
    split = raw["part_norm_ms"]
    if split and len(split[0]) == 2:  # edge-stream: update, then read
        log(f"edge-stream split: update p50 "
            f"{median([u for u, _ in split]):.3f} ms, "
            f"query_p50_ms {median([r for _, r in split]):.3f}")
    rss = raw["peak_rss_mb"]
    if raw["children_peak_rss_mb"]:
        log(f"peak rss: parent {rss:.1f} MB + largest worker "
            f"{raw['children_peak_rss_mb']:.1f} MB")
        rss += raw["children_peak_rss_mb"]
    metrics = {
        "setup_s": median(setup_norm),
        "latency_p50_ms": median(lat),
        "latency_tail_ms": tail,
        "peak_rss_mb": rss,
    }
    return {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}


def child_main(role: str, name: str, seed: int, seconds: float,
               trace: bool) -> None:
    if role == "probe":
        result = probe(name, seed)
    else:
        result = measure(name, seed, seconds, trace)
    print(json.dumps(result), flush=True)
