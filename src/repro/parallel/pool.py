"""Real process-based parallel counting — the public entry points.

CPython threads cannot scale CPU-bound clique counting (the GIL), so
the honest Python-native parallel backend uses ``multiprocessing``.
The heavy lifting lives in :mod:`repro.parallel.runtime`: graph and
DAG arrays are published once via shared memory, roots are packed into
size-aware chunks (degree-descending guided self-scheduling) streamed
through ``imap_unordered``, and the run cooperates with the
:class:`~repro.runtime.RunController` / :mod:`repro.obs` subsystems at
chunk granularity.  This module keeps the thin, validated wrappers:

* :func:`count_kcliques_processes` — target-k counting; returns the
  same :class:`~repro.counting.sct.CountResult` as the serial engine
  (the old pool returned a bare int and masked ``None`` counts as 0);
* :func:`count_all_sizes_processes` — the all-k distribution;
* :func:`per_vertex_counts_processes` — per-vertex attribution;
* :func:`build_forest_processes` — parallel
  :class:`~repro.counting.forest.SCTForest` materialization.

``processes=1`` delegates to the serial engines with the same
controller, so metadata — ``approximate``, ``degraded_from``, budget
errors — propagates identically on every path.  The scaling *figures*
use the deterministic machine model (:mod:`repro.parallel.simulate`),
since a real pool on a small host cannot show 64-thread behaviour;
``benchmarks/bench_parallel.py`` gates the real backend's speedup and
scheduling overhead.
"""

from __future__ import annotations

import os

import numpy as np

from repro.counting.structures import STRUCTURES
from repro.errors import CountingError, ParallelModelError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.parallel.runtime import (
    ParallelRuntime,
    parallel_build_forest,
    parallel_count,
    parallel_per_vertex,
)
from repro.runtime.controller import RunController

__all__ = [
    "count_kcliques_processes",
    "count_all_sizes_processes",
    "per_vertex_counts_processes",
    "build_forest_processes",
]


def _validated(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str,
    processes: int | None,
    chunks_per_process: int,
) -> tuple[CSRGraph, int]:
    """Shared argument validation; returns ``(dag, resolved procs)``."""
    if processes is not None and processes < 1:
        raise ParallelModelError("processes must be >= 1")
    if chunks_per_process < 1:
        raise ParallelModelError("chunks_per_process must be >= 1")
    if structure not in STRUCTURES:
        raise CountingError(
            f"unknown structure {structure!r}; "
            f"expected one of {sorted(STRUCTURES)}"
        )
    if isinstance(ordering, CSRGraph):
        dag = ordering
    else:
        dag = directionalize(graph, ordering)
    return dag, processes or os.cpu_count() or 1


def count_kcliques_processes(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    *,
    processes: int | None = None,
    structure: str = "remap",
    chunks_per_process: int = 4,
    kernel=None,
    controller: RunController | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
):
    """Count k-cliques using a pool of worker processes.

    Exact and bit-identical to
    :meth:`SCTEngine.count <repro.counting.sct.SCTEngine.count>` — the
    SCT total is a sum over roots and workers count disjoint root
    chunks.  Returns the full :class:`~repro.counting.sct.CountResult`.
    Workers collect metrics when the parent registry is enabled, and
    the parent merges them, so counter totals stay exact.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.  ``1`` runs the
        serial engine in-process (same controller, same result object).
    chunks_per_process:
        Oversubscription factor — more, smaller chunks improve load
        balance on skewed graphs (the paper's dynamic scheduling).
    kernel:
        ``None`` or ``"bigint"`` (see :func:`~repro.kernels.kernel_name`);
        anything else raises :class:`~repro.errors.CountingError`.
    controller:
        A :class:`~repro.runtime.RunController`, honored at chunk
        granularity: budgets, checkpoint/resume (a progress log of the
        folded chunks' partial sums), and the worker-crash degradation
        rung.
    degrade:
        Allow the worker-crash rung without a controller: a failed
        chunk re-runs in-process on ``bigint`` (exact, flagged
        ``degraded_from="worker"``) instead of raising
        :class:`~repro.errors.WorkerCrashError`.
    runtime:
        A reusable :class:`~repro.parallel.runtime.ParallelRuntime`
        pool; by default each call owns a throwaway one.
    fault_chunks:
        Chunk ids forced to fail in the worker — deterministic fault
        injection for tests/CI, the parallel analog of
        :class:`~repro.runtime.faults.FaultPlan`.  A set/sequence means
        the chunk crashes on every attempt; a ``{chunk_id: fail_count}``
        mapping makes the crash transient (recovered by retries).
    worker_retries:
        Pool resubmissions of a crashed chunk before the degradation
        rung engages (default 2); retries that succeed keep the result
        exact and unflagged, metered by ``runtime_worker_retries``.
    retry_backoff:
        Base seconds for seeded exponential backoff between retries
        (default 0.0: no sleeping, as tests and CI want); the jitter is
        drawn from ``retry_seed`` and the chunk id, so delays are
        deterministic.
    """
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    dag, procs = _validated(
        graph, ordering, structure, processes, chunks_per_process
    )
    if procs == 1:
        from repro.counting.sct import SCTEngine

        return SCTEngine(graph, dag, structure, kernel=kernel).count(
            k, controller=controller
        )
    return parallel_count(
        graph, dag, k=k, structure=structure, kernel=kernel,
        processes=procs, chunks_per_process=chunks_per_process,
        controller=controller, degrade=degrade, runtime=runtime,
        fault_chunks=fault_chunks, worker_retries=worker_retries,
        retry_backoff=retry_backoff, retry_seed=retry_seed,
    )


def count_all_sizes_processes(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    *,
    max_k: int | None = None,
    processes: int | None = None,
    structure: str = "remap",
    chunks_per_process: int = 4,
    kernel=None,
    controller: RunController | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
):
    """Count cliques of every size with worker processes (the paper's
    Fig. 1 distribution) — the all-k analog of
    :func:`count_kcliques_processes`; same integration, same
    bit-identical guarantee against
    :meth:`SCTEngine.count_all <repro.counting.sct.SCTEngine.count_all>`.
    """
    dag, procs = _validated(
        graph, ordering, structure, processes, chunks_per_process
    )
    if procs == 1:
        from repro.counting.sct import SCTEngine

        return SCTEngine(graph, dag, structure, kernel=kernel).count_all(
            max_k=max_k, controller=controller
        )
    return parallel_count(
        graph, dag, k=None, max_k=max_k, structure=structure, kernel=kernel,
        processes=procs, chunks_per_process=chunks_per_process,
        controller=controller, degrade=degrade, runtime=runtime,
        fault_chunks=fault_chunks, worker_retries=worker_retries,
        retry_backoff=retry_backoff, retry_seed=retry_seed,
    )


def per_vertex_counts_processes(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    *,
    processes: int | None = None,
    structure: str = "remap",
    chunks_per_process: int = 4,
    kernel=None,
    controller: RunController | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
) -> list[int]:
    """Per-vertex k-clique counts with worker processes (exact ints,
    identical to :func:`repro.counting.pervertex.per_vertex_counts`)."""
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    dag, procs = _validated(
        graph, ordering, structure, processes, chunks_per_process
    )
    if procs == 1:
        from repro.counting.pervertex import per_vertex_counts

        return per_vertex_counts(
            graph, k, dag, structure, kernel=kernel, controller=controller
        )
    return parallel_per_vertex(
        graph, dag, k=k, structure=structure, kernel=kernel,
        processes=procs, chunks_per_process=chunks_per_process,
        controller=controller, degrade=degrade, runtime=runtime,
        fault_chunks=fault_chunks, worker_retries=worker_retries,
        retry_backoff=retry_backoff, retry_seed=retry_seed,
    )


def build_forest_processes(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    *,
    processes: int | None = None,
    structure: str = "remap",
    chunks_per_process: int = 4,
    kernel=None,
    members: bool = True,
    controller: RunController | None = None,
    degrade: bool = False,
    runtime: ParallelRuntime | None = None,
    fault_chunks=(),
    worker_retries: int = 2,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
):
    """Materialize an :class:`~repro.counting.forest.SCTForest` with
    worker processes.  The reassembled arrays are bit-identical to a
    serial :meth:`SCTForest.build <repro.counting.forest.SCTForest.build>`,
    so every query served from the forest matches too."""
    dag, procs = _validated(
        graph, ordering, structure, processes, chunks_per_process
    )
    if procs == 1:
        from repro.counting.forest import build_forest

        return build_forest(
            graph, dag, structure, kernel,
            controller=controller, members=members,
        )
    return parallel_build_forest(
        graph, dag, structure=structure, kernel=kernel,
        processes=procs, chunks_per_process=chunks_per_process,
        members=members, controller=controller, degrade=degrade,
        runtime=runtime, fault_chunks=fault_chunks,
        worker_retries=worker_retries, retry_backoff=retry_backoff,
        retry_seed=retry_seed,
    )
