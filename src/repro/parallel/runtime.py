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
* **One chunk loop.**  :func:`run_chunks` is the parent side of every
  pool run — counting, per-vertex attribution and the forest build —
  as :func:`~repro.counting.roots.run_roots` is the serial root loop.
  It honors a :class:`~repro.runtime.RunController` at *chunk*
  granularity: deadline/node/memory budgets are metered as each
  chunk's result folds in (a chunk is all-in or not-at-all, exactly
  like the serial engines' roots), and worker metrics registries are
  snapshotted per task and merged into the parent
  (:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) so
  ``engine_*``/``kernel_*`` counter totals stay exact.  Each entry
  point keeps its fold: :func:`parallel_count` folds chunk records into a
  :class:`~repro.counting.sct.PartialCounts` (the shard executor's
  accumulator too); its progress log records each folded chunk's
  partial sums, and a resume folds them again, bit-identically.
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
from typing import Callable

import numpy as np

from repro import kernels, obs
from repro.counting.counters import Counters
from repro.errors import (
    BudgetExceededError,
    ParallelModelError,
    WorkerCrashError,
)
from repro.graph.csr import CSRGraph
from repro.obs.registry import MetricsRegistry
from repro.parallel.shm import attach_graph_pair, publish_graph_pair
from repro.runtime.controller import RunController
from repro.runtime.progress import (
    Codec,
    array_fingerprint,
    graph_fingerprint,
)

__all__ = [
    "ParallelRuntime",
    "plan_chunks",
    "run_chunks",
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
    """Identity of a chunk plan — resuming a pool count's progress log
    against a different plan (other process/chunk counts) would mix
    partial sums over different root sets."""
    if not chunks:
        return "empty"
    lengths = np.asarray([c.size for c in chunks], dtype=np.int64)
    return array_fingerprint(np.concatenate([lengths, *chunks]))


#: A pool-count chunk crosses a progress log as its partial-count
#: record (:meth:`~repro.counting.sct.RootBatchResult.record`) and its
#: degraded label, keyed by chunk id; the plan's fingerprint is in the
#: descriptor.
_CHUNK_CODEC = Codec(
    lambda rec: [
        {key: rec[0][key] for key in (
            "count", "all_counts", "counters", "per_root_work",
            "per_root_memory")},
        rec[1],
    ],
    tuple,
)


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
    """Run one chunk's roots; every mode's payload carries the chunk's
    ``counters``, which the parent meters before it folds the rest."""
    mode = task["mode"]
    roots = task["roots"]
    if mode == "count":
        res = engine.count_roots(roots, task["k"], max_k=task["max_k"])
        return res.record()
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
        return {
            "leaves": leaves_per_root,
            "counters": chunk_totals.as_dict(),
            "root_counters": counters_per_root,
        }
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
        ``fork`` where available (cheap workers), else ``spawn``.
    """

    def __init__(
        self, processes: int | None = None, *, start_method: str | None = None
    ) -> None:
        if processes is not None and processes < 1:
            raise ParallelModelError("processes must be >= 1")
        self.processes = processes or os.cpu_count() or 1
        methods = get_all_start_methods()
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
def _pool_for(runtime: ParallelRuntime | None, processes: int):
    """Borrow the caller's runtime, or own a throwaway one."""
    if runtime is not None:
        yield runtime
    else:
        with ParallelRuntime(processes) as rt:
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
    """Seeded exponential backoff with jitter for retry ``attempt``
    (1-based): ``backoff * 2^(a-1)`` scaled by a uniform factor in
    [0.5, 1.5), or 0 when ``backoff <= 0``.  The jitter stream is
    advanced either way so enabling sleeps never changes which delays
    a given seed draws.  The pool and the shard executor share it."""
    jitter = 0.5 + rng.random()
    if backoff <= 0.0:
        return 0.0
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
# the parent side: one chunk loop, three entry points
# ----------------------------------------------------------------------
def run_chunks(
    graph: CSRGraph,
    dag: CSRGraph,
    chunks: list[np.ndarray],
    task: dict,
    fold: Callable[[int, dict, str | None], None],
    *,
    processes: int,
    controller: RunController | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
    replay: list = (),
) -> None:
    """Run ``chunks`` on the pool and fold each result as it arrives —
    the parent side of every pool run, the chunk-level twin of
    :func:`~repro.counting.roots.run_roots`.

    ``task`` holds the worker's fields for every chunk (its ``mode``,
    ``structure`` and the mode's arguments); ``fold(chunk_id, payload,
    degraded)`` adds one chunk's payload into the caller's state, with
    ``degraded="worker"`` when the chunk was recounted in-process.

    The loop publishes the graph pair, streams one task per chunk
    (``chunksize=1``), ticks ``controller`` as each result arrives,
    recovers a crashed chunk (:func:`_resolve_failure`: pool retries,
    then the in-process rung when ``degrade`` or the controller's
    policy allows), meters the payload's chunk-level ``counters``
    *before* the fold (a chunk is all-in or not-at-all, so the progress
    log stays consistent), notes its memory to the profiler, merges the
    worker's metrics snapshot when the parent registry is enabled, and
    completes the chunk's roots, handing the controller ``(payload,
    degraded)`` keyed by the chunk id.  ``replay`` holds the ``(chunk
    id, (payload, degraded))`` pairs a resumed controller's
    :meth:`~repro.runtime.RunController.begin` handed back: the loop
    folds them first, in log order, and runs only the other chunks.
    The controller's :meth:`~repro.runtime.RunController.guard` wraps
    the loop even when no chunk is left to run.
    """
    ctl = controller
    metrics = obs.get_registry().enabled
    allow_degrade = degrade or (ctl is not None and ctl.degrade)
    fault_counts = _normalize_fault_chunks(fault_chunks)
    with ctl.guard() if ctl is not None else nullcontext():
        for cid, (payload, degraded) in replay:
            fold(cid, payload, degraded)
        replayed = {cid for cid, _ in replay}
        pending = [c for c in range(len(chunks)) if c not in replayed]
        if not pending:
            return
        with publish_graph_pair(graph, dag) as shared, _pool_for(
            runtime, processes
        ) as rt:
            tasks = {
                cid: dict(
                    task, chunk_id=cid, roots=[int(v) for v in chunks[cid]],
                    spec=shared.spec, metrics=metrics,
                    crash=fault_counts.get(cid, 0) >= 1,
                )
                for cid in pending
            }
            for cid, payload in rt.map_chunks(list(tasks.values())):
                if ctl is not None:
                    ctl.tick()
                if not payload.get("ok"):
                    payload = _resolve_failure(
                        rt, graph, dag, tasks[cid], payload.get("error", ""),
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
                degraded = "worker" if payload.get("degraded") else None
                fold(cid, payload, degraded)
                obs.note_memory(ctr.peak_subgraph_bytes)
                if metrics and payload.get("metrics"):
                    obs.get_registry().merge_snapshot(payload["metrics"])
                if ctl is not None:
                    ctl.complete_roots(
                        len(chunks[cid]), cid, (payload, degraded)
                    )


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
    roots: np.ndarray | None = None,
    **pool,
):
    """Multi-process exact counting (target-k when ``k`` is set, all-k
    otherwise).  Returns a full
    :class:`~repro.counting.sct.CountResult`, like the serial engines.

    ``roots`` restricts the run to a subset of root vertices (partial
    sums over the rest are zero) — the shard executor counts one
    shard's root range per call.  ``pool`` takes :func:`run_chunks`'s
    crash and pool options (``degrade``, ``runtime``, ``fault_chunks``,
    ``worker_retries``, ``retry_backoff``, ``retry_seed``).  A budget
    abort leaves the folded chunks on the error's ``partial``.
    """
    from repro.counting.sct import PartialCounts

    kernel_name = kernels.kernel_name(kernel)
    chunks = plan_chunks(dag.degrees, processes, chunks_per_process, roots)
    num_chunks = len(chunks)
    acc = PartialCounts(graph.num_vertices, k, _allk_length(dag, max_k))
    ctl = controller
    replay = []
    if ctl is not None:
        replay = ctl.begin({
            "engine": "sct-parallel",
            "k": k,
            "max_k": max_k,
            "structure": structure,
            "kernel": kernel_name,
            "graph_fingerprint": graph_fingerprint(graph),
            "dag_fingerprint": graph_fingerprint(dag),
            "num_chunks": num_chunks,
            "chunk_plan": _chunk_plan_fingerprint(chunks),
        }, _CHUNK_CODEC)

    def fold(cid: int, payload: dict, degraded: str | None) -> None:
        acc.fold(chunks[cid], payload, degraded)

    try:
        with obs.span(
            "parallel.count" if k is not None else "parallel.count_all",
            engine="sct-parallel", processes=processes, chunks=num_chunks,
            structure=structure, kernel=kernel_name,
        ), obs.phase("counting"):
            run_chunks(
                graph, dag, chunks,
                {"mode": "count", "structure": structure, "k": k,
                 "max_k": max_k},
                fold, processes=processes, controller=ctl, replay=replay,
                **pool,
            )
    except BudgetExceededError as exc:
        exc.partial = acc
        raise
    return acc.result(structure, kernel_name)


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
    **pool,
) -> list[int]:
    """Multi-process per-vertex k-clique counts (exact ints).

    Mirrors the serial :func:`repro.counting.pervertex.per_vertex_counts`
    contract: budgets at task granularity, no checkpoint state (a
    budget abort discards the run).  ``pool`` as in
    :func:`parallel_count`.
    """
    kernel_name = kernels.kernel_name(kernel)
    chunks = plan_chunks(dag.degrees, processes, chunks_per_process)
    per: list[int] = [0] * graph.num_vertices
    if controller is not None:
        controller.begin({
            "engine": "per-vertex-parallel",
            "k": k,
            "structure": structure,
            "kernel": kernel_name,
            "graph": graph_fingerprint(graph),
        })

    def fold(cid: int, payload: dict, degraded: str | None) -> None:
        for v, c in payload["per"].items():
            per[int(v)] += c

    with obs.span(
        "parallel.per_vertex", engine="per-vertex-parallel",
        processes=processes, chunks=len(chunks), structure=structure,
        kernel=kernel_name,
    ), obs.phase("counting"):
        run_chunks(
            graph, dag, chunks,
            {"mode": "pervertex", "structure": structure, "k": k},
            fold, processes=processes, controller=controller, **pool,
        )
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
    **pool,
):
    """Multi-process :class:`~repro.counting.forest.SCTForest` build.

    Workers traverse disjoint root sets and ship their leaves back;
    the parent reassembles them in root order (and, within each root,
    in recursion order), so the materialized arrays — and every query
    served from them — are bit-identical to a serial build.  Budgets
    are metered per chunk; the parallel build has no checkpoint state
    and no member-spill rung (use the serial build under a memory
    watermark when spilling matters).  ``pool`` as in
    :func:`parallel_count`.
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
    descriptor = {
        "engine": "sct-forest",
        "structure": structure,
        "kernel": kernel_name,
        "members": bool(members),
        "graph_fingerprint": graph_fingerprint(graph),
        "dag_fingerprint": graph_fingerprint(dag),
    }
    if controller is not None:
        controller.begin(dict(descriptor, parallel=processes))

    def fold(cid: int, payload: dict, degraded: str | None) -> None:
        nonlocal degraded_from
        for v, leaves, ctr_d in zip(
            chunks[cid].tolist(), payload["leaves"], payload["root_counters"]
        ):
            leaves_by_root[v] = leaves
            counters_by_root[v] = ctr_d
            ctr = Counters.from_dict(ctr_d)
            per_root_work[v] = ctr.work
            per_root_memory[v] = ctr.peak_subgraph_bytes
            per_root_recursion[v] = ctr.recursion_work
        degraded_from = degraded_from or degraded

    with obs.span(
        "parallel.forest_build", engine="sct-forest", processes=processes,
        chunks=len(chunks), structure=structure, kernel=kernel_name,
    ), obs.phase("forest_build"):
        run_chunks(
            graph, dag, chunks,
            {"mode": "forest", "structure": structure,
             "members": bool(members)},
            fold, processes=processes, controller=controller, **pool,
        )

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
