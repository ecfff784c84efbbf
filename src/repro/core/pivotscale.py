"""The PivotScale end-to-end driver.

``count_cliques(graph, k)`` runs the whole paper pipeline:

1. measure the heuristic inputs and pick the ordering (Sec. III-E) —
   unless the configuration forces one;
2. compute the ordering and directionalize (Sec. III);
3. count with the SCT recursion over the configured subgraph structure
   (Sec. IV-V);
4. attach modeled phase times for the configured machine/thread count.

The counts are exact; the times are machine-model outputs (see
DESIGN.md on the simulation substitution).
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.config import PivotScaleConfig
from repro.core.result import CliqueCountResult, PhaseBreakdown
from repro.counting.sct import SCTEngine
from repro.errors import BudgetExceededError, CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.approx_core import approx_core_ordering
from repro.ordering.base import Ordering
from repro.ordering.centrality import centrality_ordering
from repro.ordering.core import core_ordering
from repro.ordering.degree import degree_ordering
from repro.ordering.directionalize import directionalize
from repro.ordering.heuristic import HeuristicDecision, compute_ordering, select_ordering
from repro.ordering.kcore import kcore_ordering
from repro.parallel.simulate import simulate_counting, simulate_ordering
from repro.perfmodel.cost import CostModel
from repro.runtime.controller import RunController
from repro.runtime.degrade import degrade_to_sampling

__all__ = ["count_cliques", "count_cliques_all_sizes"]


def _materialize_ordering(
    g: CSRGraph, config: PivotScaleConfig
) -> tuple[Ordering, HeuristicDecision | None]:
    name = config.ordering or "heuristic"
    if name == "heuristic":
        decision = select_ordering(
            g,
            config.heuristic,
            effective_num_vertices=config.effective_num_vertices,
        )
        return compute_ordering(g, decision, config.heuristic), decision
    if name == "core":
        return core_ordering(g), None
    if name == "degree":
        return degree_ordering(g), None
    if name == "approx_core":
        return approx_core_ordering(g, eps=config.heuristic.eps), None
    if name == "kcore":
        return kcore_ordering(g), None
    if name == "centrality":
        return centrality_ordering(g), None
    raise CountingError(f"unknown ordering {name!r}")  # pragma: no cover


def _run(
    g: CSRGraph,
    k: int | None,
    config: PivotScaleConfig,
    max_k: int | None = None,
    controller: RunController | None = None,
) -> CliqueCountResult:
    if g.directed:
        raise CountingError("count_cliques expects an undirected graph")
    with obs.span("pivotscale.run", k=k, max_k=max_k,
                  structure=config.structure):
        with obs.span("pivotscale.ordering"), obs.phase("ordering"):
            ordering, decision = _materialize_ordering(g, config)
            dag = directionalize(g, ordering)
        engine = SCTEngine(g, dag, structure=config.structure)
        ctl = controller if controller is not None else config.make_controller()
        procs = config.processes or 1
        wall0 = time.perf_counter()
        try:
            if config.shard_mb is not None:
                from repro.shard import count_sharded

                counting = count_sharded(
                    g, dag, k=k, max_k=max_k,
                    structure=config.structure,
                    shard_mb=config.shard_mb, spill_dir=config.spill_dir,
                    resume=config.resume, controller=ctl,
                    degrade=config.degrade, processes=procs,
                    chunks_per_process=config.par_chunks,
                    max_retries=config.shard_retries,
                )
            elif procs > 1:
                from repro.parallel.pool import (
                    count_all_sizes_processes,
                    count_kcliques_processes,
                )

                counting = (
                    count_kcliques_processes(
                        g, k, dag, processes=procs,
                        structure=config.structure,
                        chunks_per_process=config.par_chunks,
                        controller=ctl, degrade=config.degrade,
                    )
                    if k is not None
                    else count_all_sizes_processes(
                        g, dag, max_k=max_k, processes=procs,
                        structure=config.structure,
                        chunks_per_process=config.par_chunks,
                        controller=ctl, degrade=config.degrade,
                    )
                )
            else:
                counting = (
                    engine.count(k, controller=ctl)
                    if k is not None
                    else engine.count_all(max_k=max_k, controller=ctl)
                )
        except BudgetExceededError as e:
            if ctl is None or not ctl.degrade:
                raise
            # Bottom rung of the ladder: keep the exact progress every
            # executor leaves on the error, estimate the uncounted
            # roots, flag the result approximate.
            counting = degrade_to_sampling(
                engine, k=k, max_k=max_k, partial=e.partial, cause=e,
            )
        wall = time.perf_counter() - wall0

    eff_nv = config.effective_num_vertices or float(g.num_vertices)
    # Phase times for analogs are extrapolated to paper scale with a
    # common linear factor, so within-graph phase ratios stay measured.
    work_scale = eff_nv / max(1.0, float(g.num_vertices))
    counting_phase = simulate_counting(
        counting,
        threads=config.threads,
        machine=config.machine,
        scheduler=config.scheduler,
        effective_num_vertices=eff_nv,
        max_out_degree=dag.max_degree,
        work_scale=work_scale,
    )
    ordering_phase = simulate_ordering(
        ordering.cost,
        threads=config.threads,
        machine=config.machine,
        work_scale=work_scale,
    )
    # Heuristic pass: one scan of the hub's neighborhood plus the
    # common-neighbor intersection — O(hub degree) work.
    hub_work = float(2 * g.max_degree + g.num_vertices / config.threads)
    heuristic_seconds = (
        CostModel(config.machine)
        .estimate_rounds((hub_work,), 0.0, threads=config.threads)
        .seconds
        if decision is not None
        else 0.0
    )
    phases = PhaseBreakdown(
        heuristic_seconds=heuristic_seconds,
        ordering_seconds=ordering_phase.seconds,
        counting_seconds=counting_phase.seconds,
    )
    return CliqueCountResult(
        count=counting.count,
        all_counts=counting.all_counts,
        k=k,
        decision=decision,
        ordering=ordering,
        max_out_degree=dag.max_degree,
        counting=counting,
        counting_phase=counting_phase,
        phases=phases,
        wall_seconds=wall,
        approximate=counting.approximate,
        degraded_from=counting.degraded_from,
        budget_spent=ctl.spent_snapshot() if ctl is not None else None,
    )


def count_cliques(
    g: CSRGraph,
    k: int,
    config: PivotScaleConfig | None = None,
    controller: RunController | None = None,
) -> CliqueCountResult:
    """Count k-cliques with the full PivotScale pipeline.

    ``controller`` overrides the one the config's resilience knobs
    would build (budgets, checkpoint/resume, degradation, faults).

    >>> from repro.graph.generators import complete_graph
    >>> count_cliques(complete_graph(6), 3).count
    20
    """
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    return _run(g, k, config or PivotScaleConfig(), controller=controller)


def count_cliques_all_sizes(
    g: CSRGraph,
    config: PivotScaleConfig | None = None,
    max_k: int | None = None,
    controller: RunController | None = None,
) -> CliqueCountResult:
    """Count cliques of every size (the Sec. V-A all-k variant)."""
    return _run(
        g, None, config or PivotScaleConfig(), max_k=max_k, controller=controller
    )
