"""Incremental SCT forests under edge streams (ROADMAP item 4).

PivotScale's per-root decomposition gives edge edits a *local* blast
radius: every clique lives under exactly one root — its minimum-rank
member — and a root ``r``'s pivot tree is a deterministic function of
its DAG out-neighborhood ``N⁺(r)`` and the undirected subgraph induced
on it (the fact Jain & Seshadhri's SCT rests on).  An edit ``(u, v)``
therefore re-shapes only the trees of its lower-ranked endpoint (whose
out-neighborhood gains/loses the other) and of the common neighbors of
``u`` and ``v`` ranked below both (whose induced subgraph gains/loses
the edge) — evaluated on the pre-edit **and** post-edit graphs so a
batch's compound membership changes are all caught (see
:func:`dirty_roots`).

:func:`apply_edits` computes that dirty set for a whole batch, re-runs
the pivot recursion for only those roots through the existing
structure/kernel stack, and patches the forest's flat leaf arrays in
place (dirty roots' slices are tombstoned and the arrays compacted
with the replacement leaves, preserving root order).  The per-root
model vectors also read *global* state — ``per_root_work`` charges
every member's global degree, the dense structure's ``per_root_memory``
charges ``|V|`` — so they are recomputed for **all** roots in one
vectorized pass: each root's stored recursion share
(:attr:`SCTForest.per_root_recursion
<repro.counting.forest.SCTForest.per_root_recursion>`) plus the edited
graph's build charge, the same IEEE addition a rebuild performs.  The
result is bit-identical to a from-scratch rebuild over the same rank,
at a cost proportional to what the batch changes.

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
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels, obs
from repro.counting.counters import Counters
from repro.counting.roots import run_roots
from repro.counting.structures import STRUCTURES
from repro.errors import CountingError, GraphFormatError
from repro.graph.build import csr_from_sorted_edges
from repro.graph.csr import CSRGraph
from repro.ordering.directionalize import directionalize
from repro.runtime.controller import RunController
from repro.runtime.progress import graph_fingerprint

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
    removed.  ``adds`` may come in either orientation, repeat, name
    present edges (no-ops) or self loops (dropped), and may grow the
    vertex set; ``dels`` must name present edges as ``u < v`` pairs.
    The input graph is untouched — CSR graphs stay immutable; *this*
    is the sanctioned mutation path.

    The edit is a splice, not a rebuild: the deleted edges' keys are
    cut from the graph's sorted ``u·n + w`` entry keys and the added
    ones inserted at their ``searchsorted`` positions, so no sort over
    the whole edge set runs.  The result equals
    :func:`~repro.graph.build.from_edge_array` over the edited edge
    set, fingerprint included.
    """
    if graph.directed:
        raise CountingError("edit_graph expects an undirected graph")
    n0 = graph.num_vertices
    extra = np.asarray(adds, dtype=np.int64).reshape(-1, 2)
    n = max(n0, int(extra.max()) + 1) if extra.size else n0
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than required {n}"
            )
        n = int(num_vertices)
    keys = np.repeat(np.arange(n0, dtype=np.int64) * n, graph.degrees)
    keys += graph.indices
    drop = np.asarray(dels, dtype=np.int64).reshape(-1, 2)
    if drop.size:
        u, w = drop[:, 0], drop[:, 1]
        pos, found = _probe(keys, u * n + w)
        # Out-of-range ids would alias another pair's key.
        found &= (0 <= u) & (u < w) & (w < n0)
        if not found.all():
            bad = [tuple(dels[i]) for i in np.flatnonzero(~found)]
            raise CountingError(f"cannot delete absent edges {bad}")
        keys = np.delete(
            keys, np.concatenate((pos, keys.searchsorted(w * n + u)))
        )
    if extra.size:
        if extra.min() < 0:
            raise GraphFormatError("negative vertex id in edge array")
        extra = extra[extra[:, 0] != extra[:, 1]]
        lo, hi = extra.min(axis=1), extra.max(axis=1)
        new = np.unique(np.concatenate((lo * n + hi, hi * n + lo)))
        pos, present = _probe(keys, new)
        keys = np.insert(keys, pos[~present], new[~present])
    src = keys // max(n, 1)
    return csr_from_sorted_edges(src, keys - src * n, n)


def _probe(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted`` positions of ``values`` in the sorted ``keys``,
    and whether each value is there."""
    pos = keys.searchsorted(values)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == values[hit]
    return pos, hit


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
    """Roots whose leaves the net batch can change, sorted.

    A root ``r``'s leaves are a function of its member set ``N⁺(r)``
    and the undirected subgraph induced on it.  An edit ``(u, v)``
    changes the member set of its lower-ranked endpoint only, and the
    induced subgraph of exactly the roots holding both endpoints as
    members: the common neighbors of ``u`` and ``v`` ranked below both.
    Common neighbors are taken in the old *and* the new graph, so a
    root that gains or loses ``u`` or ``v`` within the same batch is
    caught (it is then also the lower endpoint of that other edit).
    Vertices added by growth are dirty by definition (they have no
    leaves yet).  ``rank`` must cover ``new_graph``'s vertex set.

    A root holding just one endpoint keeps its leaves, though its
    ``per_root_work`` moves (the build charge reads the members'
    global degrees); :func:`apply_edits` refreshes that, and the dense
    structure's ``|V|``-dependent ``per_root_memory``, for every root
    without re-running it.  The cost is one sorted-row probe per edit
    per graph: ``O(min(deg u, deg v) · log max(deg u, deg v))``.
    """
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (new_graph.num_vertices,):
        raise CountingError(
            f"rank has shape {rank.shape}, expected "
            f"({new_graph.num_vertices},)"
        )
    parts = [
        np.arange(old_graph.num_vertices, new_graph.num_vertices,
                  dtype=np.int64),
    ]
    lower: list[int] = []
    for u, v in list(adds) + list(dels):
        lower.append(u if rank[u] < rank[v] else v)
        floor = min(rank[u], rank[v])
        for g in (old_graph, new_graph):
            if max(u, v) >= g.num_vertices:
                continue
            a, b = g.neighbors(u), g.neighbors(v)
            if a.size > b.size:
                a, b = b, a
            a = a[rank[a] < floor]
            parts.append(a[_probe(b, a)[1]])
    parts.append(np.asarray(lower, dtype=np.int64))
    return np.unique(np.concatenate(parts))


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

    Returns ``(per_root, totals, struct)`` where ``per_root`` maps
    root id -> ``(leaves, recursion_work)`` and ``struct`` is the
    structure over the edited graph.  The roots run through
    :func:`~repro.counting.roots.run_roots`, with the build's
    controller cooperation — deadline/node budgets and
    checkpoint/resume, its records in the build's codec — at
    **dirty-root** granularity: a killed ``apply_edits`` resumes
    recomputation where it stopped, and the forest arrays are only
    patched once every dirty root has landed (all-or-nothing).
    """
    from repro.counting.forest import LEAVES_CODEC, collect_root_leaves

    struct = STRUCTURES[descriptor["structure"]](graph, dag)
    totals = Counters()
    per_root: dict[int, tuple[list, float]] = {}
    ctl = controller
    replay = (
        ctl.begin(descriptor, LEAVES_CODEC)
        if ctl is not None and not ctl.started else []
    )
    calls = obs.kernel_tally()

    def fold(v: int, record: tuple) -> None:
        _, _, ctr, leaves = record
        per_root[v] = (leaves, ctr.recursion_work)
        totals.merge(ctr)

    run_roots(
        struct, dirty,
        partial(collect_root_leaves, record_members=forest.has_members,
                calls=calls),
        fold, totals, engine="sct-forest-edits", controller=ctl,
        calls=calls, replay=replay,
    )
    return per_root, totals, struct


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
    # A forest saved while a second backend existed may name it; the
    # dirty roots run, and are recorded, on the one backend.
    descriptor["kernel"] = kernels.NAME
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
            per_root, totals, struct = _recompute_roots(
                forest, new_graph, new_dag, dirty,
                controller=controller, descriptor=descriptor,
            )
            report.roots_recomputed = int(dirty.size)
            report.counters = totals

            # Commit point: every dirty root recomputed; patch the flat
            # arrays, the per-root vectors, and the identity together.
            recursion = np.zeros(new_graph.num_vertices, dtype=np.float64)
            recursion[:forest.num_vertices] = forest.per_root_recursion
            recursion[dirty] = [per_root[v][1] for v in dirty.tolist()]
            _patch_arrays(forest, dirty, per_root)
            # Every root's model vectors, clean ones included: the same
            # ``recursion + build`` sum a rebuild's Counters.work forms.
            build_words, memory = struct.model_vectors()
            forest.num_vertices = new_graph.num_vertices
            forest.per_root_recursion = recursion
            forest.per_root_work = recursion + build_words
            forest.per_root_memory = memory
            forest.counters.merge(totals)
            forest.descriptor = {
                k: v for k, v in descriptor.items()
                if k not in ("edits_digest", "base_graph_fingerprint")
            }
            forest.bind(graph=new_graph, dag=new_dag, rank=new_rank)
            forest._edits_since_reorder = pending_edits

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
        controller=controller, members=forest.has_members,
    )
    forest.num_vertices = rebuilt.num_vertices
    forest.held_n = rebuilt.held_n
    forest.pivot_n = rebuilt.pivot_n
    forest.roots = rebuilt.roots
    forest.held_members = rebuilt.held_members
    forest.pivot_members = rebuilt.pivot_members
    forest.per_root_work = rebuilt.per_root_work
    forest.per_root_memory = rebuilt.per_root_memory
    forest.per_root_recursion = rebuilt.per_root_recursion
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
