"""Enumeration-based k-clique counting (Arb-Count / kClist style).

The baseline the paper compares against (Shi et al.'s Arb-Count is the
state-of-the-art parallel enumeration algorithm).  Enumeration descends
the DAG intersecting out-neighborhoods ``k - 1`` levels deep, visiting
(a superset of) every k-clique — so its cost grows steeply with ``k``,
which is exactly the Fig. 12 behavior: it wins for small cliques and
explodes for ``k >= 8``-ish, while pivoting stays flat.

Same local-bitset machinery as the SCT engine: per root, the DAG
out-neighborhood is remapped to ``[0, d)``; within the subgraph the
descent uses local-id order as its (second-level) directionalization.

Budgets run through the shared :class:`~repro.runtime.RunController`
protocol.  Because enumeration can explode *inside a single root*, the
recursion keeps a plain-integer countdown cell (seeded from the
controller's remaining node budget, or from ``max_nodes`` when no
controller is supplied) so the hot loop never pays a method call per
node; the controller is consulted only at root boundaries.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, obs
from repro.counting.counters import Counters
from repro.counting.roots import run_roots
from repro.counting.sct import CountResult
from repro.counting.structures import STRUCTURES
from repro.errors import CountingError, NodeBudgetExceededError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.runtime.controller import RunController
from repro.runtime.progress import graph_fingerprint

__all__ = ["count_kcliques_enumeration", "EnumerationBudgetExceeded"]

# Historical name for the enumeration budget error, kept as an alias so
# existing harnesses (`except EnumerationBudgetExceeded`) keep working
# now that all budgets share one hierarchy in :mod:`repro.errors`.
EnumerationBudgetExceeded = NodeBudgetExceededError


def count_kcliques_enumeration(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    max_nodes: int | None = None,
    kernel: str | None = None,
    controller: RunController | None = None,
) -> CountResult:
    """Count k-cliques by DAG enumeration (the Arb-Count baseline).

    Returns the same :class:`~repro.counting.sct.CountResult` shape as
    the pivoting engine so harnesses can swap algorithms freely.
    ``max_nodes`` bounds recursion nodes; past it,
    :class:`~repro.errors.NodeBudgetExceededError` is raised — the
    combinatorial explosion is the *expected* result at large ``k``
    (Fig. 12).  A ``controller`` adds deadlines, memory watermarks and
    fault injection; its node budget and ``max_nodes`` compose (the
    tighter one wins).
    """
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    kernels.kernel_name(kernel)
    if graph.directed:
        raise CountingError("input graph must be undirected")
    if isinstance(ordering, CSRGraph):
        if not ordering.directed:
            raise CountingError("pass a DAG or an ordering")
        dag = ordering
    else:
        dag = directionalize(graph, ordering)
    struct = STRUCTURES[structure](graph, dag)

    n = graph.num_vertices
    totals = Counters()
    per_root_work = np.zeros(n, dtype=np.float64)
    per_root_memory = np.zeros(n, dtype=np.float64)
    total = 0

    if k == 1:
        total = n
    elif k == 2:
        total = graph.num_edges

    ctl = controller
    if ctl is not None:
        ctl.begin(
            {
                "engine": "enumeration",
                "k": k,
                "structure": struct.name,
                "kernel": kernels.NAME,
                "graph": graph_fingerprint(graph),
            }
        )
    calls = obs.kernel_tally()

    def visit(v: int, ctx) -> tuple:
        ctr = Counters()
        # The in-recursion countdown: -1 means unlimited.  Composes the
        # static max_nodes cap with the controller's remaining budget.
        limits = [x for x in (max_nodes, ctl and ctl.remaining_nodes())
                  if x is not None]
        try:
            count = _count_root(ctx, k, ctr, [min(limits) if limits else -1])
        except NodeBudgetExceededError as e:
            if ctl is not None and e.spent is None:
                ctl.spent.nodes += ctr.function_calls
                e.spent = ctl.spent_snapshot()
            raise
        if calls is not None:
            # No pivot scans.  Every node but the first of a root that
            # recursed is reached through one intersect, and so is
            # every pruned branch (an early exit).
            calls[0] += 1
            calls[1] += ctx.d > 0
            calls[3] += (ctr.function_calls + ctr.early_terminations
                         - (ctx.d >= k - 1))
        return ctr.function_calls, ctr.peak_subgraph_bytes, ctr, count

    def fold(v: int, record: tuple) -> None:
        nonlocal total
        _, peak, ctr, count = record
        total += count
        per_root_work[v] = ctr.work
        per_root_memory[v] = peak
        totals.merge(ctr)

    span_attrs = {"engine": "enumeration", "structure": struct.name,
                  "kernel": kernels.NAME, "k": k}
    if obs.get_tracer().enabled:
        span_attrs["graph"] = graph_fingerprint(graph)
    with obs.span("enumeration.count", **span_attrs), obs.phase("counting"):
        run_roots(
            struct, np.arange(n if k >= 3 else 0), visit, fold, totals,
            engine="enumeration", controller=ctl, calls=calls,
        )
    return CountResult(
        count=total,
        all_counts=None,
        k=k,
        counters=totals,
        per_root_work=per_root_work,
        per_root_memory=per_root_memory,
        structure=struct.name,
        kernel=kernels.NAME,
    )


def _count_root(ctx, k: int, ctr: Counters, budget: list[int]) -> int:
    ctr.subgraph_builds += 1
    ctr.build_words += ctx.build_words
    ctr.peak_subgraph_bytes = max(ctr.peak_subgraph_bytes, ctx.memory_bytes)
    d = ctx.d
    if d < k - 1:
        return 0
    words = (d + 63) >> 6 or 1
    rows = ctx.rows
    lw = ctx.lookup_weight

    # Second-level direction: only explore local ids above the current
    # one, so each clique inside the subgraph is enumerated once.
    above = [(~((1 << (i + 1)) - 1)) & ((1 << d) - 1) for i in range(d)]
    full = (1 << d) - 1

    def rec(P: int, depth: int) -> int:
        # depth = number of clique members chosen so far (incl. root v).
        ctr.function_calls += 1
        if budget[0] >= 0:
            budget[0] -= 1
            if budget[0] < 0:
                raise NodeBudgetExceededError(
                    "enumeration node budget exhausted"
                )
        if depth > ctr.max_depth:
            ctr.max_depth = depth
        if depth == k - 1:
            ctr.set_op_words += words
            return P.bit_count()
        count = 0
        scan = P
        while scan:
            low = scan & -scan
            i = low.bit_length() - 1
            ctr.index_lookups += lw
            ctr.set_op_words += words
            nxt = rows[i] & (P & above[i])
            nc = nxt.bit_count()
            # Degree-based pruning: not enough vertices left to finish.
            if nc >= k - depth - 2:
                count += rec(nxt, depth + 1)
            else:
                ctr.early_terminations += 1
            scan ^= low
        return count

    return rec(full, 1)
