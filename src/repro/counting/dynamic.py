"""Incremental SCT forests under edge streams (ROADMAP item 4).

PivotScale's per-root decomposition gives edge edits a *local* blast
radius: every clique lives under exactly one root — its minimum-rank
member — and a root ``r``'s whole record (its leaves *and* its
build-cost model entries) is a deterministic function of its DAG
out-neighborhood ``N⁺(r)``, the induced undirected subgraph on it,
and its members' global degrees.  An edit ``(u, v)`` therefore only
touches the roots holding an endpoint in their out-neighborhood:
every *undirected* neighbor ``r`` of an endpoint ``w`` with
``rank[r] < rank[w]`` — which covers the lower-ranked endpoint itself
(its out-neighborhood gains/loses the other), the common neighbors
ranked below both (their induced rows flip a bit), and the roots
whose build-scan cost shifts with a member's degree — evaluated on
the pre-edit **and** post-edit graphs so a batch's compound
membership changes are all caught (see :func:`dirty_roots`).

:func:`apply_edits` computes that dirty set for a whole batch, re-runs
the pivot recursion for only those roots through the existing
structure/kernel stack, and patches the forest's flat leaf arrays in
place (dirty roots' slices are tombstoned and the arrays compacted
with the replacement leaves, preserving root order) — bit-identical to
a from-scratch rebuild over the same rank, at a fraction of the work.

**Edit model.**  A batch is a sequence of ``("+"|"-", u, v)`` records
applied in order; the batch's *net* effect against the current graph
is what gets applied (duplicate records collapse, insert-then-delete
cancels, inserting a present edge / deleting an absent one is a
skipped no-op).  Vertex ids beyond the current ``|V|`` grow the vertex
set; new vertices are appended at the end of the order.

**Reorder-vs-patch policy.**  The rank permutation is a performance
heuristic, not a correctness requirement — any total order yields
exact counts — so the default ``"patch"`` policy keeps the build-time
ranks (new vertices ranked last) and edits stay local.  Enough edits
eventually erode the degeneracy ordering's quality, so ``"reorder"``
rebuilds from a fresh core ordering of the edited graph, and
``"auto"`` patches until the cumulative net-edit count since the last
full (re)build exceeds ``reorder_ratio x |E|``.

Stale-forest safety: applying edits re-keys the forest's descriptor
fingerprints (and its in-process LRU cache slot) to the *edited*
graph, so neither the cache nor a later ``.npz`` save can ever serve
the patched forest for the pre-edit graph — see
``tests/test_dynamic.py``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.counting.counters import Counters
from repro.counting.structures import STRUCTURES
from repro.errors import (
    CountingError,
    GraphFormatError,
    KernelFaultError,
    MemoryBudgetExceededError,
)
from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph
from repro.ordering.directionalize import directionalize
from repro.runtime.checkpoint import graph_fingerprint
from repro.runtime.controller import RunController

__all__ = [
    "Edit",
    "EditReport",
    "POLICIES",
    "normalize_edits",
    "edit_graph",
    "extend_rank",
    "dag_rank",
    "dirty_roots",
    "edits_digest",
    "apply_edits",
    "parse_edit_line",
    "read_edit_file",
    "iter_batches",
]

#: One edit record: ``(op, u, v)`` with op ``"+"`` (insert) or ``"-"``
#: (delete).  Self loops are rejected; ``(u, v)`` is unordered.
Edit = tuple  # ("+"|"-", int, int)

#: Valid reorder-vs-patch policies (see the module docstring).
POLICIES = ("patch", "reorder", "auto")


# ----------------------------------------------------------------------
# edit model: normalization, graph application, rank maintenance
# ----------------------------------------------------------------------
def _check_edit(edit) -> tuple[str, int, int]:
    try:
        op, u, v = edit
    except (TypeError, ValueError):
        raise CountingError(
            f"edit must be an (op, u, v) triple, got {edit!r}"
        ) from None
    if op not in ("+", "-"):
        raise CountingError(f"edit op must be '+' or '-', got {op!r}")
    u, v = int(u), int(v)
    if u < 0 or v < 0:
        raise CountingError(f"negative vertex id in edit {edit!r}")
    if u == v:
        raise CountingError(f"self-loop edit {edit!r} is not a simple edge")
    return op, u, v


def normalize_edits(
    graph: CSRGraph, edits: Iterable[Edit]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int]:
    """Net effect of an in-order edit batch against ``graph``.

    Returns ``(adds, dels, skipped)``: the edge pairs (``u < v``,
    sorted) to insert / delete, and how many input records were
    absorbed as no-ops (duplicates, cancelling pairs, inserting a
    present edge, deleting an absent one).  Deleting an edge incident
    to a vertex beyond ``|V|`` is a no-op, not an error — the edge
    cannot exist.
    """
    n = graph.num_vertices
    desired: dict[tuple[int, int], bool] = {}
    total = 0
    for edit in edits:
        op, u, v = _check_edit(edit)
        total += 1
        desired[(u, v) if u < v else (v, u)] = op == "+"
    adds: list[tuple[int, int]] = []
    dels: list[tuple[int, int]] = []
    for (u, v), want in desired.items():
        present = v < n and graph.has_edge(u, v)
        if want and not present:
            adds.append((u, v))
        elif not want and present:
            dels.append((u, v))
    adds.sort()
    dels.sort()
    return adds, dels, total - len(adds) - len(dels)


def edit_graph(
    graph: CSRGraph,
    adds: Sequence[tuple[int, int]],
    dels: Sequence[tuple[int, int]] = (),
    num_vertices: int | None = None,
) -> CSRGraph:
    """A new :class:`CSRGraph` with ``adds`` inserted and ``dels``
    removed (pairs normalized ``u < v``; ``adds`` may grow the vertex
    set).  The input graph is untouched — CSR graphs stay immutable;
    *this* is the sanctioned mutation path.
    """
    if graph.directed:
        raise CountingError("edit_graph expects an undirected graph")
    n = graph.num_vertices
    if adds:
        n = max(n, max(max(u, v) for u, v in adds) + 1)
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than required {n}"
            )
        n = int(num_vertices)
    pairs = graph.edge_array()
    if dels:
        keys = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
        drop = np.array([u * n + v for u, v in dels], dtype=np.int64)
        missing = ~np.isin(drop, keys)
        if missing.any():
            bad = [dels[i] for i in np.flatnonzero(missing)]
            raise CountingError(f"cannot delete absent edges {bad}")
        pairs = pairs[~np.isin(keys, drop)]
    if adds:
        extra = np.asarray(adds, dtype=np.int64).reshape(-1, 2)
        pairs = np.concatenate((pairs, extra), axis=0)
    return from_edge_array(pairs, num_vertices=n)


def extend_rank(rank: np.ndarray, num_vertices: int) -> np.ndarray:
    """Extend a rank permutation to a grown vertex set: new vertices
    are appended at the end of the total order in id order (they can
    only root cliques made entirely of new+edited structure)."""
    rank = np.asarray(rank, dtype=np.int64)
    n = rank.size
    if num_vertices < n:
        raise CountingError(
            f"rank covers {n} vertices, cannot shrink to {num_vertices}"
        )
    if num_vertices == n:
        return rank
    return np.concatenate(
        (rank, np.arange(n, num_vertices, dtype=np.int64))
    )


def dag_rank(dag: CSRGraph) -> np.ndarray:
    """A canonical rank permutation consistent with ``dag``.

    Deterministic Kahn peel taking the smallest-id ready vertex first.
    Directionalizing the underlying graph by this rank reproduces
    ``dag`` exactly (every stored edge is oriented consistently with
    any of its topological orders); the canonical choice only decides
    how *future* inserted edges between previously-incomparable
    vertices orient.  Used when a forest was built from a bare DAG and
    never told its rank.
    """
    import heapq

    if not dag.directed:
        raise CountingError("dag_rank expects a DAG")
    n = dag.num_vertices
    indeg = np.zeros(n, dtype=np.int64)
    if dag.indices.size:
        indeg += np.bincount(dag.indices, minlength=n)
    ready = [int(v) for v in np.flatnonzero(indeg == 0)]
    heapq.heapify(ready)
    rank = np.empty(n, dtype=np.int64)
    placed = 0
    while ready:
        v = heapq.heappop(ready)
        rank[v] = placed
        placed += 1
        for w in dag.neighbors(v):
            w = int(w)
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if placed != n:  # pragma: no cover - CSR DAGs are acyclic by build
        raise CountingError("graph passed as DAG contains a cycle")
    return rank


# ----------------------------------------------------------------------
# the dirty-root rule
# ----------------------------------------------------------------------
def dirty_roots(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    rank: np.ndarray,
    adds: Sequence[tuple[int, int]],
    dels: Sequence[tuple[int, int]] = (),
) -> np.ndarray:
    """Roots whose SCT subtree the net batch can change, sorted.

    A root ``r``'s whole record — leaves *and* the build-cost model
    ``per_root_work`` — is a function of its member set ``N⁺(r)``, the
    induced undirected subgraph on it, and the members' global degrees
    (the ``build_words`` charge covers every member's full neighbor
    list).  An edit ``(u, v)`` perturbs exactly the roots holding an
    endpoint in their out-neighborhood: every undirected neighbor ``r``
    of an endpoint ``w`` with ``rank[r] < rank[w]`` (this covers the
    lower endpoint itself, the common neighbors whose induced rows
    change, and the members-degree work shifts) — taken in the old
    *and* new graphs so a batch's compound membership changes are all
    caught.  Vertices
    added by growth are dirty by definition (they have no leaves yet).
    ``rank`` must cover ``new_graph``'s vertex set.
    """
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (new_graph.num_vertices,):
        raise CountingError(
            f"rank has shape {rank.shape}, expected "
            f"({new_graph.num_vertices},)"
        )
    dirty = set(range(old_graph.num_vertices, new_graph.num_vertices))
    for u, v in list(adds) + list(dels):
        for g in (old_graph, new_graph):
            for w in (u, v):
                if w >= g.num_vertices:
                    continue
                nbrs = g.neighbors(w)
                if nbrs.size:
                    below = nbrs[rank[nbrs] < rank[w]]
                    dirty.update(int(r) for r in below)
    return np.array(sorted(dirty), dtype=np.int64)


def edits_digest(
    adds: Sequence[tuple[int, int]], dels: Sequence[tuple[int, int]]
) -> str:
    """Stable identity of a net batch (checkpoint descriptor key)."""
    h = hashlib.sha256()
    for tag, pairs in (("+", adds), ("-", dels)):
        for u, v in pairs:
            h.update(f"{tag}{u},{v};".encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# the incremental update
# ----------------------------------------------------------------------
@dataclass
class EditReport:
    """What one :func:`apply_edits` call did.

    Attributes
    ----------
    added / removed:
        Net edge pairs applied to the graph (``u < v``, sorted).
    skipped:
        Input records absorbed as no-ops.
    dirty_roots:
        Sorted root ids whose subtrees were invalidated.
    roots_recomputed:
        Pivot recursions actually re-run (== dirty roots when
        patching, ``|V|`` after a reorder rebuild).
    policy:
        The policy that acted (``"patch"`` or ``"reorder"``; an
        ``"auto"`` call reports whichever side it chose).
    reordered:
        Whether a full rebuild under a fresh core ordering happened.
    graph / dag:
        The post-edit graph and DAG now bound to the forest.
    leaves_before / leaves_after:
        Forest size on both sides of the patch.
    counters:
        Work counters of the incremental recomputation only.
    """

    added: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    skipped: int = 0
    dirty_roots: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    roots_recomputed: int = 0
    policy: str = "patch"
    reordered: bool = False
    graph: CSRGraph | None = None
    dag: CSRGraph | None = None
    leaves_before: int = 0
    leaves_after: int = 0
    counters: Counters = field(default_factory=Counters)

    @property
    def applied(self) -> int:
        """Net edge changes actually applied."""
        return len(self.added) + len(self.removed)


def _resolve_inputs(forest, graph, ordering):
    """The (graph, rank) pair the edits apply against: explicit
    arguments win, else whatever the build bound to the forest."""
    if graph is None:
        graph = forest.graph
    if graph is None:
        raise CountingError(
            "this forest is not bound to a graph (loaded from .npz?); "
            "pass apply_edits(..., graph=, ordering=)"
        )
    if ordering is None:
        rank = forest.rank
        if rank is None and forest.dag is not None:
            rank = dag_rank(forest.dag)
    elif isinstance(ordering, np.ndarray):
        rank = np.asarray(ordering, dtype=np.int64)
    elif isinstance(ordering, CSRGraph):
        rank = dag_rank(ordering)
    else:  # an Ordering
        rank = np.asarray(ordering.rank, dtype=np.int64)
    if rank is None:
        raise CountingError(
            "this forest is not bound to an ordering; pass "
            "apply_edits(..., ordering=)"
        )
    if rank.shape != (graph.num_vertices,):
        raise CountingError(
            f"rank has shape {rank.shape}, expected "
            f"({graph.num_vertices},) for the bound graph"
        )
    expect = graph_fingerprint(graph)
    got = forest.descriptor.get("graph_fingerprint")
    if got != expect:
        raise CountingError(
            f"forest was built for graph {got!r}, edits target "
            f"{expect!r} — edits must apply against the forest's own "
            "graph"
        )
    return graph, rank


def _recompute_roots(
    forest,
    graph: CSRGraph,
    dag: CSRGraph,
    dirty: np.ndarray,
    *,
    controller: RunController | None,
    descriptor: dict,
):
    """Re-run the pivot recursion for the dirty roots.

    Returns ``(per_root, totals, kernel_name, degraded_from)`` where
    ``per_root`` maps root id -> ``(leaves, work, memory)``.  Mirrors
    the build loop's controller cooperation — deadline/node budgets,
    checkpoint/resume and kernel-fault fallback — at **dirty-root**
    granularity: a killed ``apply_edits`` resumes recomputation where
    it stopped, and the forest arrays are only patched once every
    dirty root has landed (all-or-nothing).
    """
    from repro.counting.forest import _collect_root
    from repro.counting.structures.base import RootContexts

    record_members = forest.has_members
    struct = STRUCTURES[descriptor["structure"]](
        graph, dag, kernel=descriptor["kernel"]
    )
    totals = Counters()
    degraded_from: str | None = None
    per_root: dict[int, tuple[list, float, float]] = {}
    start = 0
    ctl = controller

    if ctl is not None:
        def snapshot() -> dict:
            done = sorted(per_root)
            return {
                "next_index": len(done),
                "roots": done,
                "leaves": [
                    [
                        [h, p,
                         None if h_ids is None else list(h_ids),
                         None if p_ids is None else list(p_ids)]
                        for h, p, h_ids, p_ids in per_root[r][0]
                    ]
                    for r in done
                ],
                "work": [per_root[r][1] for r in done],
                "memory": [per_root[r][2] for r in done],
                "counters": totals.as_dict(),
                "degraded_from": degraded_from,
            }

        if ctl.started:
            state = None
        else:
            state = ctl.begin(descriptor, snapshot)
        if state is not None:
            start = int(state["next_index"])
            for r, leaves, work, memory in zip(
                state["roots"], state["leaves"],
                state["work"], state["memory"],
            ):
                per_root[int(r)] = (
                    [
                        (int(h), int(p),
                         None if h_ids is None else tuple(h_ids),
                         None if p_ids is None else tuple(p_ids))
                        for h, p, h_ids, p_ids in leaves
                    ],
                    float(work), float(memory),
                )
            totals = Counters.from_dict(state["counters"])
            degraded_from = state.get("degraded_from")

    from contextlib import nullcontext

    ctxs = RootContexts(struct, dirty[start:])
    with (ctl.guard() if ctl is not None else nullcontext()):
        for i in range(start, dirty.size):
            v = int(dirty[i])
            ctr = Counters()
            if ctl is None:
                leaves = _collect_root(
                    struct, v, ctr, record_members=record_members,
                    ctx=next(ctxs),
                )
            else:
                try:
                    ctl.tick()
                    leaves = _collect_root(
                        struct, v, ctr, record_members=record_members,
                        ctx=next(ctxs),
                    )
                except MemoryError as exc:
                    raise MemoryBudgetExceededError(
                        f"allocation failure at root {v}",
                        spent=ctl.spent_snapshot(),
                    ) from exc
                except KernelFaultError:
                    if not ctl.degrade or struct.kernel.name == "bigint":
                        raise
                    fallen = struct.kernel.name
                    obs.degradation(
                        "kernel_fallback", engine="sct-forest-edits",
                        root=v, from_kernel=fallen,
                    )
                    struct = type(struct)(graph, dag, kernel="bigint")
                    ctxs.restart(struct, i - start)
                    descriptor["kernel"] = "bigint"
                    if degraded_from is None:
                        degraded_from = fallen
                    ctr = Counters()
                    leaves = _collect_root(
                        struct, v, ctr, record_members=record_members,
                        ctx=next(ctxs),
                    )
                ctl.charge_nodes(ctr.function_calls)
                ctl.note_memory(ctr.peak_subgraph_bytes)
            per_root[v] = (leaves, ctr.work, ctr.peak_subgraph_bytes)
            totals.merge(ctr)
            obs.note_memory(ctr.peak_subgraph_bytes)
            if ctl is not None:
                ctl.complete_root(v)
    return per_root, totals, struct.kernel.name, degraded_from


def _patch_arrays(forest, dirty: np.ndarray, per_root: dict) -> None:
    """Tombstone the dirty roots' leaf slices and compact the flat
    arrays with the replacement leaves, preserving root order (roots
    are non-decreasing in the arrays, so each root's leaves are one
    contiguous slice and the rebuild-identical layout is a pure
    segment splice)."""
    roots = forest.roots
    members = forest.has_members
    lo = np.searchsorted(roots, dirty, side="left")
    hi = np.searchsorted(roots, dirty, side="right")

    hn_chunks, pn_chunks, root_chunks = [], [], []
    hm_chunks, pm_chunks = [], []
    cursor = 0
    for i, v in enumerate(dirty):
        a, b = int(lo[i]), int(hi[i])
        if a > cursor:  # the clean segment before this dirty root
            hn_chunks.append(forest.held_n[cursor:a])
            pn_chunks.append(forest.pivot_n[cursor:a])
            root_chunks.append(forest.roots[cursor:a])
            if members:
                hm_chunks.append(
                    forest.held_members[
                        forest.held_off[cursor]:forest.held_off[a]
                    ]
                )
                pm_chunks.append(
                    forest.pivot_members[
                        forest.pivot_off[cursor]:forest.pivot_off[a]
                    ]
                )
        leaves = per_root[int(v)][0]
        if leaves:
            hn_chunks.append(
                np.array([h for h, _, _, _ in leaves], dtype=np.int32)
            )
            pn_chunks.append(
                np.array([p for _, p, _, _ in leaves], dtype=np.int32)
            )
            root_chunks.append(
                np.full(len(leaves), int(v), dtype=np.int32)
            )
            if members:
                hm_chunks.append(np.array(
                    [x for _, _, h_ids, _ in leaves for x in h_ids],
                    dtype=np.int32,
                ))
                pm_chunks.append(np.array(
                    [x for _, _, _, p_ids in leaves for x in p_ids],
                    dtype=np.int32,
                ))
        cursor = b
    if cursor < forest.num_leaves:
        hn_chunks.append(forest.held_n[cursor:])
        pn_chunks.append(forest.pivot_n[cursor:])
        root_chunks.append(forest.roots[cursor:])
        if members:
            hm_chunks.append(
                forest.held_members[forest.held_off[cursor]:]
            )
            pm_chunks.append(
                forest.pivot_members[forest.pivot_off[cursor]:]
            )

    forest.held_n = (
        np.concatenate(hn_chunks) if hn_chunks
        else np.zeros(0, dtype=np.int32)
    )
    forest.pivot_n = (
        np.concatenate(pn_chunks) if pn_chunks
        else np.zeros(0, dtype=np.int32)
    )
    forest.roots = (
        np.concatenate(root_chunks) if root_chunks
        else np.zeros(0, dtype=np.int32)
    )
    if members:
        forest.held_members = (
            np.concatenate(hm_chunks) if hm_chunks
            else np.zeros(0, dtype=np.int32)
        )
        forest.pivot_members = (
            np.concatenate(pm_chunks) if pm_chunks
            else np.zeros(0, dtype=np.int32)
        )
    forest._finalize()


def apply_edits(
    forest,
    edits: Iterable[Edit],
    *,
    graph: CSRGraph | None = None,
    ordering=None,
    policy: str = "patch",
    reorder_ratio: float = 0.25,
    controller: RunController | None = None,
) -> EditReport:
    """Apply an edge-edit batch to ``forest`` in place.

    The engine behind :meth:`SCTForest.apply_edits
    <repro.counting.forest.SCTForest.apply_edits>` — see that method
    for the user-facing contract.  Returns an :class:`EditReport`.
    """
    from repro.counting.forest import _rekey_cached_forest

    if policy not in POLICIES:
        raise CountingError(
            f"unknown edit policy {policy!r}; expected one of {POLICIES}"
        )
    if reorder_ratio <= 0:
        raise CountingError("reorder_ratio must be > 0")
    graph, rank = _resolve_inputs(forest, graph, ordering)

    adds, dels, skipped = normalize_edits(graph, edits)
    report = EditReport(
        added=adds, removed=dels, skipped=skipped, policy=policy,
        graph=graph, dag=forest.dag,
        leaves_before=forest.num_leaves,
        leaves_after=forest.num_leaves,
    )
    if not adds and not dels:
        # A pure no-op batch: arrays, counters, cache key untouched.
        forest.bind(graph=graph, rank=rank)
        return report

    new_graph = edit_graph(graph, adds, dels)
    new_rank = extend_rank(rank, new_graph.num_vertices)
    # Committed only on success, so an aborted batch retried later
    # does not double-count toward the auto-reorder budget.
    pending_edits = forest._edits_since_reorder + len(adds) + len(dels)
    if policy == "auto":
        budget = reorder_ratio * max(1, new_graph.num_edges)
        policy = "reorder" if pending_edits > budget else "patch"
    report.policy = policy

    descriptor = dict(forest.descriptor)
    span_attrs = {
        "engine": "sct-forest-edits",
        "structure": descriptor["structure"],
        "kernel": descriptor["kernel"],
        "policy": policy,
    }
    old_key_descriptor = dict(forest.descriptor)

    with obs.span("forest.apply_edits", **span_attrs), obs.phase(
        "forest_edits"
    ):
        if policy == "reorder":
            _apply_reorder(forest, new_graph, descriptor, controller)
            dirty = dirty_roots(graph, new_graph, new_rank, adds, dels)
            report.dirty_roots = dirty
            report.roots_recomputed = new_graph.num_vertices
            report.reordered = True
            report.counters = forest.counters
        else:
            dirty = dirty_roots(graph, new_graph, new_rank, adds, dels)
            report.dirty_roots = dirty
            new_dag = directionalize(new_graph, new_rank)
            descriptor["graph_fingerprint"] = graph_fingerprint(new_graph)
            descriptor["dag_fingerprint"] = graph_fingerprint(new_dag)
            descriptor["edits_digest"] = edits_digest(adds, dels)
            descriptor["base_graph_fingerprint"] = (
                forest.descriptor["graph_fingerprint"]
            )
            per_root, totals, kernel_name, degraded_from = (
                _recompute_roots(
                    forest, new_graph, new_dag, dirty,
                    controller=controller, descriptor=descriptor,
                )
            )
            report.roots_recomputed = int(dirty.size)
            report.counters = totals

            # Commit point: every dirty root recomputed; patch the flat
            # arrays, the per-root vectors, and the identity together.
            n_new = new_graph.num_vertices
            if n_new > forest.num_vertices:
                grow = n_new - forest.num_vertices
                forest.per_root_work = np.concatenate(
                    (forest.per_root_work, np.zeros(grow))
                )
                forest.per_root_memory = np.concatenate(
                    (forest.per_root_memory, np.zeros(grow))
                )
                forest.num_vertices = n_new
            _patch_arrays(forest, dirty, per_root)
            for v, (_, work, memory) in per_root.items():
                forest.per_root_work[v] = work
                forest.per_root_memory[v] = memory
            forest.counters.merge(totals)
            forest.descriptor = {
                k: v for k, v in descriptor.items()
                if k not in ("edits_digest", "base_graph_fingerprint")
            }
            forest.descriptor["kernel"] = kernel_name
            if degraded_from is not None and forest.degraded_from is None:
                forest.degraded_from = degraded_from
            forest.bind(graph=new_graph, dag=new_dag, rank=new_rank)
            forest._edits_since_reorder = pending_edits
            obs.record_run(
                totals, engine="sct-forest-edits",
                structure=descriptor["structure"], kernel=kernel_name,
                roots=int(dirty.size),
            )

        report.graph = forest.graph
        report.dag = forest.dag
        report.leaves_after = forest.num_leaves
        # Re-key the in-process LRU slot: the patched forest must only
        # ever be served for the *edited* graph's fingerprints.
        _rekey_cached_forest(forest, old_key_descriptor)

        reg = obs.get_registry()
        if reg.enabled:
            reg.counter("forest_edits_applied_total").inc(report.applied)
            reg.counter("forest_edits_skipped_total").inc(report.skipped)
            reg.counter("forest_roots_dirty_total").inc(
                int(report.dirty_roots.size)
            )
            reg.counter("forest_roots_recomputed_total").inc(
                report.roots_recomputed
            )
            reg.gauge("forest_leaves").set(forest.num_leaves)
    return report


def _apply_reorder(forest, new_graph, descriptor, controller) -> None:
    """The reorder side of the policy: full rebuild under a fresh core
    ordering of the edited graph, copied into ``forest`` in place so
    every existing reference serves the new state."""
    from repro.counting.forest import SCTForest
    from repro.ordering.core import core_ordering

    ordering = core_ordering(new_graph)
    rebuilt = SCTForest.build(
        new_graph, ordering, descriptor["structure"],
        descriptor["kernel"], controller=controller,
        members=forest.has_members,
    )
    forest.num_vertices = rebuilt.num_vertices
    forest.held_n = rebuilt.held_n
    forest.pivot_n = rebuilt.pivot_n
    forest.roots = rebuilt.roots
    forest.held_members = rebuilt.held_members
    forest.pivot_members = rebuilt.pivot_members
    forest.per_root_work = rebuilt.per_root_work
    forest.per_root_memory = rebuilt.per_root_memory
    forest.counters = rebuilt.counters
    forest.descriptor = rebuilt.descriptor
    forest.degraded_from = rebuilt.degraded_from or forest.degraded_from
    forest._finalize()
    forest.bind(
        graph=new_graph, dag=rebuilt.dag, rank=np.asarray(ordering.rank)
    )
    forest._edits_since_reorder = 0


# ----------------------------------------------------------------------
# edit streams: file format + batching (the CLI `stream` mode)
# ----------------------------------------------------------------------
def parse_edit_line(line: str, lineno: int = 0) -> Edit | None:
    """One edit-file line -> edit record (``None`` for blank/comment).

    Format: ``+ u v`` inserts, ``- u v`` deletes; ``#`` starts a
    comment; whitespace separates.
    """
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = text.split()
    if len(parts) != 3 or parts[0] not in ("+", "-"):
        raise CountingError(
            f"edit line {lineno}: expected '+ u v' or '- u v', "
            f"got {line.rstrip()!r}"
        )
    try:
        u, v = int(parts[1]), int(parts[2])
    except ValueError:
        raise CountingError(
            f"edit line {lineno}: non-integer vertex id in "
            f"{line.rstrip()!r}"
        ) from None
    return _check_edit((parts[0], u, v))


def read_edit_file(path: str | os.PathLike[str]) -> list[Edit]:
    """Parse a whole edit file (see :func:`parse_edit_line`)."""
    edits: list[Edit] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            edit = parse_edit_line(line, lineno)
            if edit is not None:
                edits.append(edit)
    return edits


def iter_batches(
    edits: Sequence[Edit], batch_size: int | None = None
) -> Iterator[list[Edit]]:
    """Split an edit sequence into application batches (``None`` =
    one batch holding everything; an empty sequence yields nothing)."""
    if batch_size is not None and batch_size < 1:
        raise CountingError("batch_size must be >= 1")
    if not edits:
        return
    if batch_size is None:
        yield list(edits)
        return
    for i in range(0, len(edits), batch_size):
        yield list(edits[i:i + batch_size])
