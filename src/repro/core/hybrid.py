"""Hybrid enumeration/pivoting counter (paper Sec. VI-H).

"Pivoting algorithms are more suited for counting large cliques in
graphs and enumeration algorithms perform well for smaller cliques.  A
hybrid algorithm which performs well for all clique sizes can easily be
implemented by switching with a simple heuristic e.g. (k >= 8)."

This module is that hybrid: enumeration (Arb-Count style) below the
switch point, the full PivotScale pipeline at and above it.  The switch
point defaults to the paper's ``k = 8`` crossover, which PivotScale's
parallel scalability moved down from Pivoter's ``k = 10``.

With ``config.degrade`` the hybrid is also the middle rung of the
graceful-degradation ladder: an enumeration run that blows its node
budget is retried with the pivoting pipeline (whose tree size is
k-insensitive) under a *fresh* controller, and if pivoting's budget
dies too, the pipeline itself falls through to root sampling and
returns a flagged-approximate result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.config import PivotScaleConfig
from repro.core.pivotscale import count_cliques
from repro.counting.arbcount import count_kcliques_enumeration
from repro.counting.sct import CountResult
from repro.errors import BudgetExceededError, CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.degree import degree_ordering
from repro.ordering.directionalize import max_out_degree
from repro.parallel.simulate import simulate_counting, simulate_ordering

__all__ = ["HybridResult", "count_cliques_hybrid", "DEFAULT_SWITCH_K"]

#: The paper's crossover: pivoting wins from k = 8 on large graphs.
DEFAULT_SWITCH_K = 8


@dataclass
class HybridResult:
    """Outcome of a hybrid count.

    ``algorithm`` records which engine ran ("enumeration" or
    "pivoting"); ``model_seconds`` is the modeled 64-thread total for
    the chosen path so the two regimes are comparable.
    ``approximate``/``degraded_from`` mirror
    :class:`~repro.core.result.CliqueCountResult` when the degradation
    ladder was exercised.
    """

    count: int | float
    k: int
    algorithm: str
    model_seconds: float
    counting: CountResult
    approximate: bool = False
    degraded_from: str | None = None


def count_cliques_hybrid(
    g: CSRGraph,
    k: int,
    *,
    switch_k: int = DEFAULT_SWITCH_K,
    config: PivotScaleConfig | None = None,
) -> HybridResult:
    """Count k-cliques with enumeration below ``switch_k``, pivoting
    at or above it.

    Enumeration uses the degree ordering (Arb-Count's default regime
    for small k, where ordering time dominates); pivoting runs the
    full PivotScale pipeline including its ordering heuristic.  Each
    attempt gets its own controller from ``config``'s resilience knobs
    so an earlier rung's exhausted budget does not starve the retry.
    """
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    if switch_k < 1:
        raise CountingError("switch_k must be >= 1")
    cfg = config or PivotScaleConfig()

    def pivoting(degraded_from: str | None = None) -> HybridResult:
        r = count_cliques(g, k, cfg)
        joined = (
            r.degraded_from
            if degraded_from is None
            else ",".join(filter(None, (degraded_from, r.degraded_from)))
            or degraded_from
        )
        return HybridResult(
            count=r.count or 0,
            k=k,
            algorithm="pivoting",
            model_seconds=r.total_model_seconds,
            counting=r.counting,
            approximate=r.approximate,
            degraded_from=joined,
        )

    with obs.span("hybrid.count", k=k, switch_k=switch_k):
        if k >= switch_k:
            return pivoting()
        with obs.phase("ordering"):
            ordering = degree_ordering(g)
        ctl = cfg.make_controller()
        try:
            result = count_kcliques_enumeration(
                g,
                k,
                ordering,
                structure=cfg.structure,
                controller=ctl,
            )
        except BudgetExceededError:
            if ctl is None or not ctl.degrade:
                raise
            # Middle rung: the enumeration tree exploded; the pivoting
            # tree for the same k is far smaller — retry before
            # sampling.
            obs.degradation("enumeration_retry", engine="hybrid", k=k)
            return pivoting(degraded_from="enumeration")
    eff_nv = cfg.effective_num_vertices or float(g.num_vertices)
    work_scale = eff_nv / max(1.0, float(g.num_vertices))
    seconds = (
        simulate_ordering(
            ordering.cost, threads=cfg.threads, machine=cfg.machine,
            work_scale=work_scale,
        ).seconds
        + simulate_counting(
            result,
            threads=cfg.threads,
            machine=cfg.machine,
            effective_num_vertices=eff_nv,
            max_out_degree=max_out_degree(g, ordering),
            work_scale=work_scale,
        ).seconds
    )
    return HybridResult(
        count=result.count or 0,
        k=k,
        algorithm="enumeration",
        model_seconds=seconds,
        counting=result,
        approximate=result.approximate,
        degraded_from=result.degraded_from,
    )
