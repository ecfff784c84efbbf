"""The crash-safe out-of-core shard executor.

:func:`count_sharded` runs one counting workload — target-k or all-k —
as a sequence of independent vertex shards (see
:mod:`repro.shard.planner`).  Each shard's CSR slice is spilled to
mmap-backed ``.npy`` files (:mod:`repro.shard.spill`), counted through
the ordinary :class:`~repro.counting.sct.SCTEngine` (serially or via
the PR 5 process pool), and its exact partial result is appended to the
crash-safe ledger (:mod:`repro.shard.ledger`).  Per-root additivity of
the SCT recursion makes the fold exact: the sharded total is
bit-identical to the in-memory engines, counters included.

Fault handling is the robustness story:

* every spill artifact carries a content checksum; a torn or corrupt
  file (including the injected ``io_partial_write`` /
  ``io_corrupt_read`` faults) is detected on read-verify, quarantined
  (renamed ``*.corrupt``), and the shard is **respilled and retried**
  with bounded, seeded exponential backoff;
* ``OSError`` during a spill (including injected ``io_enospc``) takes
  the same retry path;
* only when the retries are exhausted does the degradation ladder
  engage: with ``degrade=True`` the shard is recounted exactly from the
  resident in-memory graph and the result is flagged
  ``degraded_from="shard"``; otherwise :class:`~repro.errors.ShardError`
  propagates.  A single injected I/O fault therefore never produces a
  wrong count or an unhandled traceback.

Crash safety: a killed run (interrupt fault, budget abort, SIGKILL) is
resumed with ``resume=True`` — the ledger is replayed (torn tail
truncated), completed shards are folded from their recorded partial
results, and only the remaining shards are recounted, landing on
bit-identical output.  Budgets are metered per invocation: a resumed
run charges only the shards it actually counts.

The :class:`~repro.runtime.RunController` cooperates at **shard**
granularity — ``tick`` (faults + deadline) at each shard boundary,
``charge_nodes`` / ``note_memory`` before a shard's fold,
``complete_roots`` after — mirroring the chunk-granularity contract of
the parallel runtime.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext

import numpy as np

from repro import kernels, obs
from repro.errors import BudgetExceededError, IOIntegrityError, ShardError
from repro.counting.counters import Counters
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.parallel.runtime import _retry_delay
from repro.runtime.checkpoint import graph_fingerprint
from repro.runtime.controller import RunController
from repro.shard.ledger import LEDGER_NAME, ShardLedger
from repro.shard.planner import ShardPlan, plan_shards
from repro.shard.spill import load_shard_slice, write_shard_spill

__all__ = ["count_sharded"]

# Test seam (mirrors repro.parallel.runtime._sleep): monkeypatch to
# assert on retry delays without actually sleeping.
_sleep = time.sleep


def _spill_files_present(spill_dir, shard) -> bool:
    from repro.shard.spill import shard_paths

    return all(
        os.path.exists(p) for p in shard_paths(spill_dir, shard.index).values()
    )


def _count_range(
    graph,
    dag,
    shard,
    *,
    k,
    max_k,
    structure,
    processes=None,
    chunks_per_process=4,
    runtime=None,
) -> dict:
    """Count one shard's roots on ``graph``/``dag`` — its mmapped slice,
    or the resident graph on the fallback rung — and return the
    JSON-ready partial-count record the ledger stores."""
    from repro.counting.sct import RootBatchResult, SCTEngine

    lo, hi = shard.lo, shard.hi
    if processes is not None and processes > 1:
        from repro.parallel.runtime import parallel_count

        res = parallel_count(
            graph, dag, k=k, max_k=max_k,
            structure=structure, processes=processes,
            chunks_per_process=chunks_per_process, runtime=runtime,
            roots=np.arange(lo, hi, dtype=np.int64),
        )
        batch = RootBatchResult(
            list(range(lo, hi)), res.count or 0, res.all_counts,
            res.counters, res.per_root_work[lo:hi].tolist(),
            res.per_root_memory[lo:hi].tolist(),
        )
    else:
        eng = SCTEngine(graph, dag, structure)
        batch = eng.count_roots(range(lo, hi), k, max_k=max_k)
    return {"lo": lo, "hi": hi, **batch.record()}


def count_sharded(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    *,
    k: int | None = None,
    max_k: int | None = None,
    structure: str = "remap",
    kernel=None,
    shard_bytes: int | None = None,
    shard_mb: float | None = None,
    spill_dir: str | os.PathLike[str],
    resume: bool = False,
    controller: RunController | None = None,
    faults=None,
    degrade: bool = False,
    processes: int | None = None,
    chunks_per_process: int = 4,
    runtime=None,
    max_retries: int = 3,
    retry_backoff: float = 0.0,
    retry_seed: int = 0,
):
    """Count cliques out-of-core through the crash-safe shard runtime.

    Exact and bit-identical to the in-memory engines for both target-k
    (``k`` set) and all-k (``k=None``) runs; see the module docstring
    for the fault and resume semantics.

    Parameters
    ----------
    shard_mb / shard_bytes:
        The spill-slice watermark (exactly one required); ``shard_mb``
        is the MiB convenience form matching
        :class:`~repro.core.config.PivotScaleConfig`.
    spill_dir:
        Directory for the spill files and the ledger (created if
        missing).  One directory serves one plan at a time.
    resume:
        Replay the ledger in ``spill_dir`` and recount only the shards
        without a recorded partial result.
    controller:
        Optional :class:`~repro.runtime.RunController`, honored at
        shard granularity.  In shard mode the ledger — not the JSON
        checkpoint — is the resume mechanism, so a controller begun
        here never loads a checkpoint.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`; its I/O fault specs
        are injected through the safeio layer under every spill,
        ledger, and (via the controller) checkpoint write, and its
        interrupt/clock faults fire at shard boundaries.  Defaults to
        ``controller.faults``.
    degrade:
        Allow the shard rung of the degradation ladder: a shard whose
        retries are exhausted is recounted exactly from the resident
        graph and the result flagged ``degraded_from="shard"``.
        ``controller.degrade`` also enables it.
    processes:
        ``None``/``1`` counts each shard's slice serially in-process;
        ``>= 2`` routes each shard through the process pool
        (``runtime`` is reused across shards when given).
    max_retries:
        Bounded respill-and-recount retries per failed shard before the
        degradation ladder engages.
    retry_backoff / retry_seed:
        Base seconds and seed for the deterministic exponential-backoff
        jitter between retries (default 0.0: no sleeping).

    Returns
    -------
    CountResult
        The same result object as the serial engines, with
        ``degraded_from="shard"`` when the fallback rung engaged.
    """
    from repro.counting.sct import PartialCounts
    from repro.errors import CountingError

    if k is not None and k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    if (shard_bytes is None) == (shard_mb is None):
        raise CountingError("pass exactly one of shard_bytes / shard_mb")
    if shard_bytes is None:
        shard_bytes = max(1, int(shard_mb * (1 << 20)))
    if max_retries < 0:
        raise CountingError("max_retries must be >= 0")
    if isinstance(ordering, CSRGraph):
        dag = ordering
    else:
        dag = directionalize(graph, ordering)
    kernel_name = kernels.kernel_name(kernel)

    plan = plan_shards(graph, dag, shard_bytes=shard_bytes)
    descriptor = {
        "engine": "sct-shard",
        "k": k,
        "max_k": max_k,
        "structure": structure,
        "kernel": kernel_name,
        "graph_fingerprint": graph_fingerprint(graph),
        "dag_fingerprint": graph_fingerprint(dag),
        "num_shards": plan.num_shards,
        "shard_plan": plan.fingerprint,
    }

    ctl = controller
    if faults is None and ctl is not None:
        faults = ctl.faults
    allow_degrade = degrade or (ctl is not None and ctl.degrade)

    os.makedirs(spill_dir, exist_ok=True)
    ledger = ShardLedger.open(
        os.path.join(os.fspath(spill_dir), LEDGER_NAME),
        descriptor,
        resume=resume,
        faults=faults,
    )

    if ctl is not None and not ctl.started:
        # The ledger, not the JSON checkpoint, resumes shard runs.
        ctl.resume = False
        ctl.begin(descriptor)

    def ledger_append(method, *args) -> None:
        """Best-effort durability: a failed ledger append (e.g. an
        injected ENOSPC) loses only the record — the partial result is
        already exact in memory, and a later resume simply recounts the
        unrecorded shard."""
        try:
            method(*args)
        except OSError as exc:
            obs.degradation("ledger_append", error=str(exc))

    acc = PartialCounts(graph.num_vertices, k)
    reg = obs.get_registry()

    def run_shard(shard) -> dict:
        """Spill (if needed), verify, mmap, count — with bounded
        retries and quarantine-on-corruption."""
        rng = random.Random((int(retry_seed) << 16) ^ shard.index)
        last_error: Exception | None = None
        for attempt in range(max_retries + 1):
            if attempt:
                delay = _retry_delay(rng, attempt, retry_backoff)
                if reg.enabled:
                    reg.counter("shard_retries").inc()
                if delay > 0.0:
                    _sleep(delay)
            try:
                manifest = ledger.spilled.get(shard.index)
                if manifest is None or not _spill_files_present(
                    spill_dir, shard
                ):
                    manifest = write_shard_spill(
                        spill_dir, shard, graph, dag, faults=faults
                    )
                    ledger_append(ledger.record_spill, shard.index, manifest)
                    if reg.enabled:
                        reg.counter("shard_spilled_bytes").inc(
                            sum(m["bytes"] for m in manifest.values())
                        )
                sg, sdag = load_shard_slice(
                    spill_dir, shard, manifest, faults=faults
                )
                return _count_range(
                    sg, sdag, shard, k=k, max_k=max_k,
                    structure=structure, processes=processes,
                    chunks_per_process=chunks_per_process,
                    runtime=runtime,
                )
            except IOIntegrityError as exc:
                last_error = exc
                # The torn artifact was quarantined by the loader;
                # dropping the manifest forces a fresh spill whose
                # ledger record supersedes the corrupt one.
                ledger.spilled.pop(shard.index, None)
                if reg.enabled:
                    reg.counter("shard_quarantined").inc()
            except OSError as exc:
                last_error = exc
        if allow_degrade:
            # Last rung before failure: recount this shard exactly
            # from the resident in-memory graph (the result is still
            # exact — the flag records that spilling gave up).
            obs.degradation(
                "shard_fallback", shard=shard.index, error=str(last_error),
            )
            state = _count_range(
                graph, dag, shard, k=k, max_k=max_k, structure=structure
            )
            return dict(state, degraded=True)
        raise ShardError(
            f"shard {shard.index} (roots [{shard.lo}, {shard.hi})) failed "
            f"after {max_retries + 1} attempts: {last_error}"
        ) from last_error

    def fold(shard, state: dict) -> None:
        degraded = "shard" if state.get("degraded") else None
        acc.fold(slice(shard.lo, shard.hi), state, degraded)

    pending = [s for s in plan.shards if s.index not in ledger.done]
    try:
        with obs.span(
            "shard.count" if k is not None else "shard.count_all",
            engine="sct-shard", shards=plan.num_shards,
            structure=structure, kernel=kernel_name,
        ), obs.phase("counting"), (
            ctl.guard() if ctl is not None else nullcontext()
        ):
            # Fold already-recorded shards first (resume path) — in
            # shard index order, so the fold order matches a fresh run.
            for shard in plan.shards:
                state = ledger.done.get(shard.index)
                if state is not None:
                    fold(shard, state)
            for shard in pending:
                if ctl is not None:
                    ctl.tick()
                state = run_shard(shard)
                if ctl is not None:
                    # Meter BEFORE recording/folding: a shard is all-in
                    # or not-at-all, so the ledger stays consistent.
                    ctr = Counters.from_dict(state["counters"])
                    ctl.charge_nodes(ctr.function_calls)
                    ctl.note_memory(ctr.peak_subgraph_bytes)
                ledger_append(ledger.record_done, shard.index, state)
                fold(shard, state)
                if ctl is not None:
                    ctl.complete_roots(shard.num_roots)
            if not ledger.complete:
                ledger_append(ledger.record_complete)
    except BudgetExceededError as exc:
        exc.partial = acc
        raise
    return acc.result(structure, kernel_name)
