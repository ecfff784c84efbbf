"""The process-parallel runtime: shared graphs, dynamic scheduling,
budget/checkpoint/metrics integration.

This is the real (non-simulated) execution backend behind
:func:`repro.parallel.pool.count_kcliques_processes` and friends.  It
reproduces, in ``multiprocessing`` terms, what the paper's OpenMP
``schedule(dynamic)`` loop over Algorithm 1 line 4 does on the 64-core
EPYC:

* **Shared graphs.**  The CSR graph and DAG arrays are published once
  via :mod:`repro.parallel.shm` and attached zero-copy by every worker
  — under both ``fork`` and ``spawn`` — instead of being pickled per
  worker as the old pool did.
* **Size-aware dynamic scheduling.**  :func:`plan_chunks` orders roots
  by descending out-degree and packs them into
  ``processes x chunks_per_process`` chunks by a guided
  self-scheduling rule over the ``d² + d + 1`` per-root cost proxy:
  heavy roots land in small early chunks, the light tail in large late
  ones.  Chunks stream through ``imap_unordered(..., chunksize=1)`` so
  whichever worker frees up first takes the next chunk and stragglers
  never serialize the tail.
* **Subsystem integration.**  A :class:`~repro.runtime.RunController`
  is honored at *chunk* granularity: deadline/node/memory budgets are
  metered as each chunk's result folds in (a chunk is all-in or
  not-at-all, exactly like the serial engines' roots), checkpoints
  record completed-chunk partial sums and resume bit-identically, and
  worker metrics registries are snapshotted per task and merged into
  the parent (:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`)
  so ``engine_*``/``kernel_*`` counter totals stay exact.
* **Worker-crash resilience.**  Workers report failures as data
  (never as a raised exception through the pool), so the parent knows
  which chunk died.  A failed chunk is first *resubmitted to the pool*
  up to ``worker_retries`` times with seeded exponential backoff
  (deterministic jitter, so CI runs are reproducible) — a transient
  crash recovers with no loss of exactness and no degradation flag,
  metered by the ``runtime_worker_retries`` registry counter.  Only
  when retries are exhausted does the degradation rung engage: with
  degradation enabled the chunk re-runs in-process — the result stays
  exact, flagged ``degraded_from="worker"``; without it a
  :class:`~repro.errors.WorkerCrashError` propagates.  Fault injection
  mirrors both shapes: ``fault_chunks`` accepts a set of chunk ids
  (persistent crashes) or a ``{chunk_id: fail_count}`` mapping
  (transient — the chunk crashes on its first ``fail_count`` attempts
  and then succeeds).

Counts are bit-identical to the serial engines by construction: the
SCT total is a sum over roots, chunk results are exact partial sums
over disjoint root sets, and integer folds are order-independent.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from functools import partial
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from repro import kernels, obs
from repro.counting.counters import Counters
from repro.errors import (
    CheckpointError,
    ParallelModelError,
    WorkerCrashError,
)
from repro.graph.csr import CSRGraph
from repro.obs.registry import MetricsRegistry
from repro.parallel.shm import attach_graph_pair, publish_graph_pair
from repro.runtime.checkpoint import array_fingerprint, graph_fingerprint
from repro.runtime.controller import RunController

__all__ = [
    "ParallelRuntime",
    "plan_chunks",
    "parallel_count",
    "parallel_per_vertex",
    "parallel_build_forest",
]


# ----------------------------------------------------------------------
# chunk planning (degree-descending guided self-scheduling)
# ----------------------------------------------------------------------
def plan_chunks(
    degrees: np.ndarray,
    processes: int,
    chunks_per_process: int = 4,
    roots: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Partition root vertices into size-aware chunks.

    Roots are sorted by descending DAG out-degree (stable, so ties keep
    vertex order) and packed greedily against the ``d² + d + 1`` cost
    proxy — an upper-bound shape for per-root pivot work (subgraph
    build is O(d²) words, the recursion grows with d).  Each chunk
    takes roots until it reaches its share of the *remaining* weight
    (guided self-scheduling), so the heavy head of the degree
    distribution is spread thinly across early chunks while the light
    tail batches up.  Every chunk is non-empty and every root appears
    exactly once.

    ``roots`` restricts planning to a subset of vertex ids (the shard
    executor schedules one shard's root range at a time); ``degrees``
    stays indexed by vertex id.
    """
    if roots is not None:
        roots = np.asarray(roots, dtype=np.int64)
        sub = plan_chunks(
            np.asarray(degrees, dtype=np.int64)[roots],
            processes,
            chunks_per_process,
        )
        return [roots[c] for c in sub]
    if processes < 1:
        raise ParallelModelError("processes must be >= 1")
    if chunks_per_process < 1:
        raise ParallelModelError("chunks_per_process must be >= 1")
    degrees = np.asarray(degrees, dtype=np.int64)
    n = int(degrees.size)
    if n == 0:
        return []
    order = np.argsort(-degrees, kind="stable").astype(np.int64)
    w = degrees[order].astype(np.float64)
    w = w * w + w + 1.0
    num_chunks = min(n, processes * chunks_per_process)
    remaining = float(w.sum())
    chunks: list[np.ndarray] = []
    pos = 0
    for i in range(num_chunks):
        rc = num_chunks - i
        rem = n - pos
        max_take = rem - (rc - 1)  # leave >= 1 root per later chunk
        target = remaining / rc
        acc = 0.0
        take = 0
        while take < max_take and (take == 0 or acc < target):
            acc += w[pos + take]
            take += 1
        chunks.append(order[pos:pos + take])
        pos += take
        remaining -= acc
    if pos < n:  # float-sum guard: sweep any leftover into the last chunk
        chunks[-1] = np.concatenate([chunks[-1], order[pos:]])
    return chunks


def _chunk_plan_fingerprint(chunks: list[np.ndarray]) -> str:
    """Identity of a chunk plan — resuming a parallel checkpoint
    against a different plan (other process/chunk counts) would mix
    partial sums over different root sets."""
    if not chunks:
        return "empty"
    lengths = np.asarray([c.size for c in chunks], dtype=np.int64)
    return array_fingerprint(np.concatenate([lengths, *chunks]))


def _allk_length(dag: CSRGraph, max_k: int | None) -> int:
    """Length of the all-k counts row (mirrors ``SCTEngine._allk_shape``
    so parent fold rows and worker chunk rows line up elementwise)."""
    size_cap = dag.max_degree + 2
    if max_k is not None:
        size_cap = min(size_cap, max_k + 1)
    return max(size_cap, 2)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
# Per-process caches, keyed by shared-segment name: attachments keep the
# mapped segment alive (the graphs are views over its buffer), engines
# amortize structure construction across the tasks of one run.
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()
_ENGINES: "OrderedDict[tuple, object]" = OrderedDict()
_WORKER_CACHE_MAX = 4


def _attach(spec) -> tuple[CSRGraph, CSRGraph]:
    entry = _ATTACHED.get(spec.name)
    if entry is None:
        graph, dag, shm = attach_graph_pair(spec)
        _ATTACHED[spec.name] = entry = (graph, dag, shm)
        while len(_ATTACHED) > _WORKER_CACHE_MAX:
            _detach(next(iter(_ATTACHED)))
    else:
        _ATTACHED.move_to_end(spec.name)
    return entry[0], entry[1]


def _detach(name: str) -> None:
    """Drop one cached attachment and unmap its segment.

    The graphs are views over the segment's buffer, so they and the
    engines built on them go first: closing a segment whose buffer is
    still exported raises ``BufferError`` before the segment's file
    descriptor is closed, leaking it.
    """
    shm = _ATTACHED.pop(name)[2]
    for key in [key for key in _ENGINES if key[0] == name]:
        del _ENGINES[key]
    shm.close()


def _cached_engine(task: dict, graph: CSRGraph, dag: CSRGraph):
    from repro.counting.sct import SCTEngine

    key = (task["spec"].name, task["structure"])
    engine = _ENGINES.get(key)
    if engine is None:
        engine = SCTEngine(graph, dag, task["structure"])
        _ENGINES[key] = engine
        while len(_ENGINES) > _WORKER_CACHE_MAX:
            _ENGINES.popitem(last=False)
    else:
        _ENGINES.move_to_end(key)
    return engine


def _execute_mode(task: dict, engine, graph: CSRGraph) -> dict:
    mode = task["mode"]
    roots = task["roots"]
    if mode == "count":
        res = engine.count_roots(roots, task["k"])
        return {
            "count": res.count,
            "counters": res.counters.as_dict(),
            "per_root_work": res.per_root_work,
            "per_root_memory": res.per_root_memory,
        }
    if mode == "allk":
        res = engine.count_roots(roots, None, max_k=task["max_k"])
        return {
            "all_counts": res.all_counts,
            "counters": res.counters.as_dict(),
            "per_root_work": res.per_root_work,
            "per_root_memory": res.per_root_memory,
        }
    if mode == "pervertex":
        from repro.counting.forest import walk_roots
        from repro.counting.pervertex import vertex_sink

        k = task["k"]
        per = [0] * graph.num_vertices
        ctr = walk_roots(engine.structure, roots, vertex_sink(per, k), k=k,
                         engine="per-vertex")
        return {
            "per": {i: c for i, c in enumerate(per) if c},
            "counters": ctr.as_dict(),
        }
    if mode == "forest":
        from repro.counting.forest import collect_root_leaves
        from repro.counting.roots import run_roots

        leaves_per_root = []
        counters_per_root = []
        chunk_totals = Counters()
        calls = obs.kernel_tally()

        def fold(v: int, record: tuple) -> None:
            _, _, ctr, leaves = record
            leaves_per_root.append(leaves)
            counters_per_root.append(ctr.as_dict())
            chunk_totals.merge(ctr)

        run_roots(
            engine.structure, roots,
            partial(collect_root_leaves, record_members=task["members"],
                    calls=calls),
            fold, chunk_totals, engine="sct-forest", calls=calls,
        )
        return {"leaves": leaves_per_root, "counters": counters_per_root}
    raise ParallelModelError(f"unknown worker mode {mode!r}")


def _run_chunk_impl(task: dict) -> dict:
    if task.get("crash"):
        raise WorkerCrashError(
            f"injected worker fault in chunk {task['chunk_id']}"
        )
    graph, dag = _attach(task["spec"])
    metrics = bool(task.get("metrics"))
    prev_reg = None
    if metrics:
        # A fresh enabled registry per task: its snapshot is exactly
        # this task's share of the run's metrics.
        prev_reg = obs.set_registry(MetricsRegistry(enabled=True))
    try:
        engine = _cached_engine(task, graph, dag)
        payload = _execute_mode(task, engine, graph)
        if metrics:
            payload["metrics"] = obs.get_registry().as_dict()
        payload["ok"] = True
        return payload
    finally:
        if prev_reg is not None:
            obs.set_registry(prev_reg)


def _run_chunk(task: dict) -> tuple[int, dict]:
    """The pool task function.  Failures come back as data — raising
    through ``imap_unordered`` would tell the parent *that* something
    died but not *which chunk*, and would poison the result stream."""
    chunk_id = task["chunk_id"]
    try:
        return chunk_id, _run_chunk_impl(task)
    except Exception as exc:  # noqa: BLE001 - errors cross as data
        return chunk_id, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# the runtime (pool lifecycle + task streaming)
# ----------------------------------------------------------------------
class ParallelRuntime:
    """A reusable worker pool for the parallel counting entry points.

    The pool is created lazily on first use and reused across runs and
    across graphs (workers cache shared-memory attachments per
    segment), which matters on the ``spawn`` start method where worker
    startup costs a fresh interpreter.  Pass an instance via the
    ``runtime=`` keyword of the :mod:`repro.parallel.pool` functions to
    amortize it; otherwise each call builds and tears down its own.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; defaults to
        ``$REPRO_START_METHOD`` if set (how CI sweeps the whole suite
        under each method), else ``fork`` where available (cheap
        workers), else ``spawn``.
    """

    def __init__(
        self, processes: int | None = None, *, start_method: str | None = None
    ) -> None:
        if processes is not None and processes < 1:
            raise ParallelModelError("processes must be >= 1")
        self.processes = processes or os.cpu_count() or 1
        methods = get_all_start_methods()
        if start_method is None:
            start_method = os.environ.get("REPRO_START_METHOD") or None
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise ParallelModelError(
                f"start method {start_method!r} unavailable on this "
                f"platform; have {methods}"
            )
        self.start_method = start_method
        self._ctx = get_context(start_method)
        self._pool = None

    @property
    def pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(self.processes)
        return self._pool

    def map_chunks(self, tasks: list[dict]):
        """Stream ``(chunk_id, payload)`` results as workers finish.

        ``chunksize=1`` is load-bearing: the default ``pool.map``
        heuristic re-batches consecutive tasks into contiguous blocks,
        which would undo the oversubscribed chunk plan and hand one
        worker the whole heavy head of the degree distribution.  One
        task per dispatch keeps scheduling dynamic.
        """
        return self.pool.imap_unordered(_run_chunk, tasks, chunksize=1)

    def close(self) -> None:
        """Tear the pool down (terminate, like ``Pool.__exit__``)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def _pool_for(
    runtime: ParallelRuntime | None, processes: int, start_method: str | None
):
    """Borrow the caller's runtime, or own a throwaway one."""
    if runtime is not None:
        yield runtime
    else:
        with ParallelRuntime(processes, start_method=start_method) as rt:
            yield rt


def _normalize_fault_chunks(fault_chunks) -> dict[int, float]:
    """Injected-crash schedule as ``{chunk_id: fail_count}``.

    A bare iterable of chunk ids means "crashes forever" (the PR 5
    shape); a mapping bounds the crashes, so a chunk with
    ``fail_count=1`` dies on its first attempt and succeeds on the
    first retry — the transient-fault case the bounded retry loop
    exists for.
    """
    if isinstance(fault_chunks, dict):
        return {int(c): float(f) for c, f in fault_chunks.items()}
    return {int(c): math.inf for c in fault_chunks}


def _build_tasks(
    chunks: list[np.ndarray],
    pending: list[int],
    spec,
    *,
    mode: str,
    structure: str,
    metrics: bool,
    fault_chunks,
    **extra,
) -> list[dict]:
    fault_counts = _normalize_fault_chunks(fault_chunks)
    tasks = []
    for cid in pending:
        task = {
            "chunk_id": cid,
            "roots": [int(v) for v in chunks[cid]],
            "spec": spec,
            "mode": mode,
            "structure": structure,
            "metrics": metrics,
        }
        if fault_counts.get(cid, 0) >= 1:
            task["crash"] = True
        task.update(extra)
        tasks.append(task)
    return tasks


def _retry_in_process(
    graph: CSRGraph, dag: CSRGraph, task: dict, error: str
) -> dict:
    """The worker-crash degradation rung: re-run the failed chunk in
    the parent.  The chunk's result does not depend on where it runs,
    so the folded result stays exact — only ``degraded_from`` records
    that a worker died."""
    from repro.counting.sct import SCTEngine

    obs.degradation(
        "worker_retry", engine="sct-parallel",
        chunk=task["chunk_id"], error=error,
    )
    retry = dict(task, metrics=False)
    retry.pop("crash", None)
    engine = SCTEngine(graph, dag, retry["structure"])
    payload = _execute_mode(retry, engine, graph)
    payload["ok"] = True
    payload["degraded"] = True
    return payload


_sleep = time.sleep  # monkeypatch seam for backoff tests


def _retry_delay(rng: random.Random, attempt: int, backoff: float) -> float:
    """Seeded exponential backoff with jitter: ``backoff * 2^(a-1)``
    scaled by a uniform factor in [0.5, 1.5).  The jitter stream is
    advanced even when ``backoff == 0`` so enabling sleeps never
    changes which delays a given (seed, chunk) pair draws."""
    jitter = 0.5 + rng.random()
    return backoff * (2.0 ** (attempt - 1)) * jitter


def _resolve_failure(
    rt: "ParallelRuntime",
    graph: CSRGraph,
    dag: CSRGraph,
    task: dict,
    error: str,
    *,
    fault_counts: dict[int, float],
    worker_retries: int,
    retry_backoff: float,
    retry_seed: int,
    allow_degrade: bool,
) -> dict:
    """Recover a crashed chunk: bounded pool retries, then degrade.

    Resubmits the chunk to the pool up to ``worker_retries`` times with
    seeded exponential backoff.  A retry that succeeds returns its
    payload unflagged — a transient crash costs retries, not exactness.
    On exhaustion the degradation ladder takes over: an in-process
    recount (exact, ``degraded`` flagged) when degradation is enabled,
    :class:`~repro.errors.WorkerCrashError` otherwise.
    """
    cid = task["chunk_id"]
    rng = random.Random((int(retry_seed) << 20) ^ cid)
    reg = obs.get_registry()
    for attempt in range(1, worker_retries + 1):
        delay = _retry_delay(rng, attempt, retry_backoff)
        if delay > 0:
            _sleep(delay)
        if reg.enabled:
            reg.counter("runtime_worker_retries").inc()
        retry = dict(task)
        # attempt here is the retry number; the initial dispatch was
        # attempt 1, so this resubmission is overall attempt 1+attempt.
        if 1 + attempt <= fault_counts.get(cid, 0):
            retry["crash"] = True
        else:
            retry.pop("crash", None)
        payload = None
        for _cid, payload in rt.map_chunks([retry]):
            break
        if payload is not None and payload.get("ok"):
            return payload
        error = (payload or {}).get("error", error)
    if not allow_degrade:
        raise WorkerCrashError(
            f"chunk {cid} failed in a worker after {1 + worker_retries} "
            f"attempts: {error}"
        )
    return _retry_in_process(graph, dag, task, error)


# ----------------------------------------------------------------------
# parent-side drivers
# ----------------------------------------------------------------------
def parallel_count(
    graph: CSRGraph,
    dag: CSRGraph,
    *,
    k: int | None,
    max_k: int | None = None,
    structure: str = "remap",
    kernel=None,
    processes: int,
    chunks_per_process: int = 4,
    controller: RunController | None = None,
    collect_metrics: bool | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    start_method: str | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
    roots: np.ndarray | None = None,
):
    """Multi-process exact counting (target-k when ``k`` is set, all-k
    otherwise).  Returns a full
    :class:`~repro.counting.sct.CountResult`, like the serial engines.

    ``collect_metrics=None`` (default) follows the parent registry:
    when metrics are enabled, workers snapshot their per-task
    registries and the parent merges them, keeping counter totals
    exact; when disabled, workers skip collection entirely.

    ``roots`` restricts the run to a subset of root vertices (partial
    sums over the rest are zero) — the shard executor counts one
    shard's root range per call.  ``worker_retries`` /
    ``retry_backoff`` / ``retry_seed`` shape the bounded crash-retry
    loop (see :func:`_resolve_failure`).
    """
    from repro.counting.sct import CountResult

    n = graph.num_vertices
    kernel_name = kernels.kernel_name(kernel)
    chunks = plan_chunks(dag.degrees, processes, chunks_per_process, roots)
    num_chunks = len(chunks)
    length = 0
    all_counts: list[int] | None = None
    if k is None:
        length = _allk_length(dag, max_k)
        all_counts = [0] * length
    totals = Counters()
    per_root_work = np.zeros(n, dtype=np.float64)
    per_root_memory = np.zeros(n, dtype=np.float64)
    total = 0
    done: set[int] = set()
    degraded_from: str | None = None
    ctl = controller
    merge_metrics = (
        obs.get_registry().enabled
        if collect_metrics is None
        else bool(collect_metrics)
    )
    allow_degrade = degrade or (ctl is not None and ctl.degrade)
    fault_counts = _normalize_fault_chunks(fault_chunks)

    if ctl is not None:
        def snapshot() -> dict:
            return {
                "done_chunks": sorted(done),
                "total": total,
                "all_counts": None if all_counts is None else list(all_counts),
                "counters": totals.as_dict(),
                "per_root_work": per_root_work.tolist(),
                "per_root_memory": per_root_memory.tolist(),
                "degraded_from": degraded_from,
            }

        descriptor = {
            "engine": "sct-parallel",
            "k": k,
            "max_k": max_k,
            "structure": structure,
            "kernel": kernel_name,
            "graph_fingerprint": graph_fingerprint(graph),
            "dag_fingerprint": graph_fingerprint(dag),
            "num_chunks": num_chunks,
            "chunk_plan": _chunk_plan_fingerprint(chunks),
        }
        state = ctl.begin(descriptor, snapshot)
        if state is not None:
            done = {int(c) for c in state["done_chunks"]}
            total = int(state["total"])
            if all_counts is not None:
                stored = state.get("all_counts")
                if stored is None or len(stored) != length:
                    raise CheckpointError(
                        "checkpoint all_counts row does not match this "
                        "run's clique-size cap"
                    )
                all_counts = [int(c) for c in stored]
            totals = Counters.from_dict(state["counters"])
            per_root_work[:] = state["per_root_work"]
            per_root_memory[:] = state["per_root_memory"]
            degraded_from = state.get("degraded_from")

    pending = [c for c in range(num_chunks) if c not in done]
    mode = "count" if k is not None else "allk"
    with obs.span(
        "parallel.count" if k is not None else "parallel.count_all",
        engine="sct-parallel", processes=processes, chunks=num_chunks,
        structure=structure, kernel=kernel_name,
    ), obs.phase("counting"), (
        ctl.guard() if ctl is not None else nullcontext()
    ):
        if pending:
            with publish_graph_pair(graph, dag) as shared, _pool_for(
                runtime, processes, start_method
            ) as rt:
                tasks = _build_tasks(
                    chunks, pending, shared.spec, mode=mode,
                    structure=structure, metrics=merge_metrics,
                    fault_chunks=fault_chunks, k=k, max_k=max_k,
                    members=True,
                )
                for chunk_id, payload in rt.map_chunks(tasks):
                    if ctl is not None:
                        ctl.tick()
                    if not payload.get("ok"):
                        payload = _resolve_failure(
                            rt, graph, dag, tasks[pending.index(chunk_id)],
                            payload.get("error", ""),
                            fault_counts=fault_counts,
                            worker_retries=worker_retries,
                            retry_backoff=retry_backoff,
                            retry_seed=retry_seed,
                            allow_degrade=allow_degrade,
                        )
                    ctr = Counters.from_dict(payload["counters"])
                    if ctl is not None:
                        # Meter BEFORE folding: a chunk is all-in or
                        # not-at-all, so checkpoints stay consistent.
                        ctl.charge_nodes(ctr.function_calls)
                        ctl.note_memory(ctr.peak_subgraph_bytes)
                    roots_arr = chunks[chunk_id]
                    if all_counts is not None:
                        row = payload["all_counts"]
                        for s in range(length):
                            if row[s]:
                                all_counts[s] += row[s]
                    else:
                        total += payload["count"]
                    per_root_work[roots_arr] = payload["per_root_work"]
                    per_root_memory[roots_arr] = payload["per_root_memory"]
                    totals.merge(ctr)
                    obs.note_memory(ctr.peak_subgraph_bytes)
                    if payload.get("degraded") and degraded_from is None:
                        degraded_from = "worker"
                    if merge_metrics and payload.get("metrics"):
                        obs.get_registry().merge_snapshot(payload["metrics"])
                    done.add(chunk_id)
                    if ctl is not None:
                        ctl.complete_roots(len(roots_arr))

    if all_counts is not None:
        while len(all_counts) > 1 and all_counts[-1] == 0:
            all_counts.pop()
    return CountResult(
        count=None if k is None else total,
        all_counts=all_counts,
        k=k,
        counters=totals,
        per_root_work=per_root_work,
        per_root_memory=per_root_memory,
        structure=structure,
        kernel=kernel_name,
        degraded_from=degraded_from,
    )


def parallel_per_vertex(
    graph: CSRGraph,
    dag: CSRGraph,
    *,
    k: int,
    structure: str = "remap",
    kernel=None,
    processes: int,
    chunks_per_process: int = 4,
    controller: RunController | None = None,
    collect_metrics: bool | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    start_method: str | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
) -> list[int]:
    """Multi-process per-vertex k-clique counts (exact ints).

    Mirrors the serial :func:`repro.counting.pervertex.per_vertex_counts`
    contract: budgets at task granularity, no checkpoint state (a
    budget abort discards the run).
    """
    n = graph.num_vertices
    kernel_name = kernels.kernel_name(kernel)
    chunks = plan_chunks(dag.degrees, processes, chunks_per_process)
    per: list[int] = [0] * n
    ctl = controller
    merge_metrics = (
        obs.get_registry().enabled
        if collect_metrics is None
        else bool(collect_metrics)
    )
    allow_degrade = degrade or (ctl is not None and ctl.degrade)
    fault_counts = _normalize_fault_chunks(fault_chunks)
    if ctl is not None:
        ctl.begin({
            "engine": "per-vertex-parallel",
            "k": k,
            "structure": structure,
            "kernel": kernel_name,
            "graph": graph_fingerprint(graph),
        })
    with obs.span(
        "parallel.per_vertex", engine="per-vertex-parallel",
        processes=processes, chunks=len(chunks), structure=structure,
        kernel=kernel_name,
    ), obs.phase("counting"), (
        ctl.guard() if ctl is not None else nullcontext()
    ):
        if chunks:
            with publish_graph_pair(graph, dag) as shared, _pool_for(
                runtime, processes, start_method
            ) as rt:
                tasks = _build_tasks(
                    chunks, list(range(len(chunks))), shared.spec,
                    mode="pervertex", structure=structure,
                    metrics=merge_metrics, fault_chunks=fault_chunks, k=k,
                )
                for chunk_id, payload in rt.map_chunks(tasks):
                    if ctl is not None:
                        ctl.tick()
                    if not payload.get("ok"):
                        payload = _resolve_failure(
                            rt, graph, dag, tasks[chunk_id],
                            payload.get("error", ""),
                            fault_counts=fault_counts,
                            worker_retries=worker_retries,
                            retry_backoff=retry_backoff,
                            retry_seed=retry_seed,
                            allow_degrade=allow_degrade,
                        )
                    ctr = Counters.from_dict(payload["counters"])
                    if ctl is not None:
                        ctl.charge_nodes(ctr.function_calls)
                        ctl.note_memory(ctr.peak_subgraph_bytes)
                    for v, c in payload["per"].items():
                        per[int(v)] += c
                    if merge_metrics and payload.get("metrics"):
                        obs.get_registry().merge_snapshot(payload["metrics"])
                    if ctl is not None:
                        ctl.complete_roots(len(chunks[chunk_id]))
    return per


def parallel_build_forest(
    graph: CSRGraph,
    dag: CSRGraph,
    *,
    structure: str = "remap",
    kernel=None,
    processes: int,
    chunks_per_process: int = 4,
    members: bool = True,
    controller: RunController | None = None,
    collect_metrics: bool | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    start_method: str | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
):
    """Multi-process :class:`~repro.counting.forest.SCTForest` build.

    Workers traverse disjoint root sets and ship their leaves back;
    the parent reassembles them in root order (and, within each root,
    in recursion order), so the materialized arrays — and every query
    served from them — are bit-identical to a serial build.  Budgets
    are metered per chunk; the parallel build has no checkpoint state
    and no member-spill rung (use the serial build under a memory
    watermark when spilling matters).
    """
    from repro.counting.forest import SCTForest, _LeafLists

    n = graph.num_vertices
    kernel_name = kernels.kernel_name(kernel)
    chunks = plan_chunks(dag.degrees, processes, chunks_per_process)
    leaves_by_root: dict[int, list] = {}
    counters_by_root: dict[int, dict] = {}
    per_root_work = np.zeros(n, dtype=np.float64)
    per_root_memory = np.zeros(n, dtype=np.float64)
    per_root_recursion = np.zeros(n, dtype=np.float64)
    degraded_from: str | None = None
    ctl = controller
    merge_metrics = (
        obs.get_registry().enabled
        if collect_metrics is None
        else bool(collect_metrics)
    )
    allow_degrade = degrade or (ctl is not None and ctl.degrade)
    fault_counts = _normalize_fault_chunks(fault_chunks)
    descriptor = {
        "engine": "sct-forest",
        "structure": structure,
        "kernel": kernel_name,
        "members": bool(members),
        "graph_fingerprint": graph_fingerprint(graph),
        "dag_fingerprint": graph_fingerprint(dag),
    }
    if ctl is not None:
        ctl.begin(dict(descriptor, parallel=processes))
    with obs.span(
        "parallel.forest_build", engine="sct-forest", processes=processes,
        chunks=len(chunks), structure=structure, kernel=kernel_name,
    ), obs.phase("forest_build"), (
        ctl.guard() if ctl is not None else nullcontext()
    ):
        if chunks:
            with publish_graph_pair(graph, dag) as shared, _pool_for(
                runtime, processes, start_method
            ) as rt:
                tasks = _build_tasks(
                    chunks, list(range(len(chunks))), shared.spec,
                    mode="forest", structure=structure,
                    metrics=merge_metrics, fault_chunks=fault_chunks,
                    members=bool(members),
                )
                for chunk_id, payload in rt.map_chunks(tasks):
                    if ctl is not None:
                        ctl.tick()
                    if not payload.get("ok"):
                        payload = _resolve_failure(
                            rt, graph, dag, tasks[chunk_id],
                            payload.get("error", ""),
                            fault_counts=fault_counts,
                            worker_retries=worker_retries,
                            retry_backoff=retry_backoff,
                            retry_seed=retry_seed,
                            allow_degrade=allow_degrade,
                        )
                        if payload.get("degraded") and degraded_from is None:
                            degraded_from = "worker"
                    roots_arr = chunks[chunk_id]
                    chunk_ctr = Counters()
                    for v, leaves, ctr_d in zip(
                        roots_arr, payload["leaves"], payload["counters"]
                    ):
                        v = int(v)
                        leaves_by_root[v] = leaves
                        counters_by_root[v] = ctr_d
                        ctr = Counters.from_dict(ctr_d)
                        per_root_work[v] = ctr.work
                        per_root_memory[v] = ctr.peak_subgraph_bytes
                        per_root_recursion[v] = ctr.recursion_work
                        chunk_ctr.merge(ctr)
                    if ctl is not None:
                        ctl.charge_nodes(chunk_ctr.function_calls)
                        ctl.note_memory(chunk_ctr.peak_subgraph_bytes)
                        ctl.complete_roots(len(roots_arr))
                    obs.note_memory(chunk_ctr.peak_subgraph_bytes)
                    if merge_metrics and payload.get("metrics"):
                        obs.get_registry().merge_snapshot(payload["metrics"])

    # Reassemble in root order: chunk completion order is
    # nondeterministic, but leaves are keyed by root and each root's
    # leaves arrive in recursion order, so this loop reproduces the
    # serial build's append order exactly.
    lists = _LeafLists(members)
    totals = Counters()
    for v in range(n):
        lists.append(v, leaves_by_root.get(v, ()))
        totals.merge(Counters.from_dict(counters_by_root[v]))

    reg = obs.get_registry()
    if reg.enabled:
        reg.gauge("forest_leaves").set(len(lists.held_n))

    return SCTForest(
        num_vertices=n,
        **lists.arrays(),
        per_root_work=per_root_work,
        per_root_memory=per_root_memory,
        per_root_recursion=per_root_recursion,
        counters=totals,
        descriptor=descriptor,
        degraded_from=degraded_from,
    )
