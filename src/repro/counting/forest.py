"""Materialized SCT forest — build the pivot tree once, query forever.

The succinct clique tree's whole value proposition (Pivoter; PivotScale
Sec. V-A) is that *one* pivot recursion encodes every clique of the
graph: each leaf with held set ``H`` and pivot set ``Π`` stands for the
clique family ``{H ∪ S : S ⊆ Π}``, each clique appearing in exactly one
family.  The direct engines throw that tree away and re-run the
recursion for every question asked of it — ``count(k)`` per k,
per-vertex counts, per-edge counts, profiles, and the peeling apps pay
the full traversal again and again.

:class:`SCTForest` runs the recursion **once** per (graph, DAG,
structure, kernel) and records, per leaf, the compact tuple the SCT
needs — ``(|H|, |Π|)`` in flat NumPy arrays, the leaf's root vertex,
and (for attribution queries) the packed held-/pivot-member ids.  Every
counting query then becomes an array fold over the leaves:

* :meth:`count` / :meth:`count_all` — group leaves by their
  ``(|H|, |Π|)`` pair with :func:`np.unique`/``bincount`` once, then
  fold exact binomial coefficients (Pascal rows) over the handful of
  distinct pairs.  Exact Python-int arithmetic, microseconds per query.
* :meth:`per_vertex` / :meth:`per_edge` — the Sec. V-A attribution
  formulas applied to the stored memberships (vectorized
  ``np.add.at`` when the totals provably fit ``int64``, exact big-int
  fallback otherwise).
* :meth:`profiles`, :meth:`max_clique_size`, :attr:`per_root_work` —
  free by-products of the same arrays.
* :meth:`sample_cliques` — uniform k-clique sampling by leaf-weighted
  selection, a workload the materialized tree gives us for free: pick
  a leaf with probability ``C(|Π|, k-|H|) / total``, then ``k - |H|``
  of its pivots uniformly.

Builds cooperate with the :class:`~repro.runtime.RunController` at root
granularity (deadlines, node budgets, checkpoint/resume); the member
arrays are memory-accounted, and a crossed watermark either raises the
standard :class:`~repro.errors.MemoryBudgetExceededError` or — with
degradation enabled — *spills* the memberships and keeps the
counts-only forest (attribution queries then raise, counting queries
stay exact).  Forests are cached in-process keyed by the same
fingerprint machinery checkpoints use, and can be saved to / loaded
from an ``.npz`` file next to a run's checkpoints.

The traversal lives here too: :func:`walk_root` is the one
member-tracking leaf walker.  The forest builds and the dirty-root
recompute drive it with a sink that records each leaf, and the direct
attribution engines (per-vertex, per-edge, profiles) with sinks that
apply their Sec. V-A formulas, on the target-k tree or the size-capped
one.

When is re-recursing cheaper?  A single ``count(k)`` on a graph you
will never query again: the forest build costs one full (unpruned)
traversal plus recording, while a lone target-k run enjoys the early
exits.  The forest wins from the second query onward — and the build
is itself cheaper than one all-k run on clique-rich graphs because
leaves are recorded, not expanded into binomial rows.
"""

from __future__ import annotations

import io
import json
import os
import warnings
import zipfile
import zlib
from collections import OrderedDict

import numpy as np

from repro import kernels, obs
from repro.counting.binomial import binomial, binomial_row
from repro.counting.counters import Counters
from repro.counting.roots import run_roots
from repro.counting.structures import STRUCTURES, SubgraphStructure
from repro.counting.structures.base import RootContext
from repro.errors import (
    CheckpointError,
    CountingError,
    DegradedResultWarning,
    ForestFormatError,
    MemoryBudgetExceededError,
)
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.runtime.checkpoint import graph_fingerprint
from repro.runtime.controller import RunController

__all__ = [
    "SCTForest",
    "build_forest",
    "get_forest",
    "load_forest",
    "load_or_rebuild_forest",
    "forest_cache_key",
    "clear_forest_cache",
    "collect_root_leaves",
    "walk_root",
    "walk_roots",
]

FOREST_FORMAT_VERSION = 2

#: Vectorized attribution is used only when the query's total clique
#: count provably bounds every intermediate below int64 range.
_INT64_SAFE = 1 << 62

#: Modeled bytes per stored leaf (held_n + pivot_n + root).
_LEAF_BYTES = 12
#: Modeled bytes per stored member id.
_MEMBER_BYTES = 4


class SCTForest:
    """One materialized succinct clique tree, served from flat arrays.

    Build via :meth:`build` (or the module-level :func:`get_forest`,
    which adds fingerprint-keyed caching); the constructor only wraps
    already-finalized arrays.

    Attributes
    ----------
    held_n / pivot_n:
        ``int32[L]`` — per-leaf held-set and pivot-set sizes.
    roots:
        ``int32[L]`` — the root vertex owning each leaf.
    held_members / pivot_members:
        ``int32[·]`` flat member ids (global vertex ids), sliced by
        :attr:`held_off` / :attr:`pivot_off`; ``None`` after a memory
        spill (counts-only forest).
    per_root_work / per_root_memory:
        The same per-root task vectors :class:`~repro.counting.sct.CountResult`
        carries — the scheduler model's inputs.
    per_root_recursion:
        Each root's :attr:`Counters.recursion_work
        <repro.counting.counters.Counters.recursion_work>`, the part of
        its ``per_root_work`` that depends on its induced subgraph
        alone; :meth:`apply_edits` adds the edited graph's build
        charges to it instead of re-running roots whose subgraph did
        not change.
    counters:
        Build-time instrumentation (one full unpruned SCT traversal).
    descriptor:
        Identity dict (engine/structure/kernel + graph & DAG
        fingerprints) — the cache key and the save/load guard.
    """

    def __init__(
        self,
        *,
        num_vertices: int,
        held_n: np.ndarray,
        pivot_n: np.ndarray,
        roots: np.ndarray,
        held_members: np.ndarray | None,
        pivot_members: np.ndarray | None,
        per_root_work: np.ndarray,
        per_root_memory: np.ndarray,
        per_root_recursion: np.ndarray,
        counters: Counters,
        descriptor: dict,
        degraded_from: str | None = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.held_n = np.asarray(held_n, dtype=np.int32)
        self.pivot_n = np.asarray(pivot_n, dtype=np.int32)
        self.roots = np.asarray(roots, dtype=np.int32)
        self.held_members = (
            None if held_members is None
            else np.asarray(held_members, dtype=np.int32)
        )
        self.pivot_members = (
            None if pivot_members is None
            else np.asarray(pivot_members, dtype=np.int32)
        )
        self.per_root_work = np.asarray(per_root_work, dtype=np.float64)
        self.per_root_memory = np.asarray(per_root_memory, dtype=np.float64)
        self.per_root_recursion = np.asarray(
            per_root_recursion, dtype=np.float64
        )
        self.counters = counters
        self.descriptor = dict(descriptor)
        self.degraded_from = degraded_from
        # Bound build inputs (see :meth:`bind`) — what `apply_edits`
        # edits against.  Loaded forests start unbound.
        self._graph: CSRGraph | None = None
        self._dag: CSRGraph | None = None
        self._rank: np.ndarray | None = None
        self._edits_since_reorder = 0
        self._finalize()

    # ------------------------------------------------------------------
    # derived indexes
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        L = int(self.held_n.size)
        self.num_leaves = L
        self.held_off = np.zeros(L + 1, dtype=np.int64)
        self.pivot_off = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(self.held_n, out=self.held_off[1:])
        np.cumsum(self.pivot_n, out=self.pivot_off[1:])
        if L:
            pmax = int(self.pivot_n.max())
            key = self.held_n.astype(np.int64) * (pmax + 1) + self.pivot_n
            uniq, inv, mult = np.unique(
                key, return_inverse=True, return_counts=True
            )
            self._pairs = [
                (int(u) // (pmax + 1), int(u) % (pmax + 1), int(m))
                for u, m in zip(uniq, mult)
            ]
            self._pair_inv = inv.astype(np.int64)
        else:
            self._pairs = []
            self._pair_inv = np.zeros(0, dtype=np.int64)

    @property
    def has_members(self) -> bool:
        """Whether the member arrays survived (no memory spill)."""
        return self.held_members is not None and self.pivot_members is not None

    # ------------------------------------------------------------------
    # bound build inputs (the dynamic-update substrate)
    # ------------------------------------------------------------------
    def bind(
        self,
        *,
        graph: CSRGraph | None = None,
        dag: CSRGraph | None = None,
        rank: np.ndarray | None = None,
    ) -> "SCTForest":
        """Attach the build inputs this forest materializes.

        :meth:`build` / :func:`get_forest` call this automatically;
        forests loaded from ``.npz`` stay unbound (the file stores only
        fingerprints) and need explicit ``graph=`` / ``ordering=``
        arguments to :meth:`apply_edits`.  Only the given fields are
        updated.  Returns ``self``.
        """
        if graph is not None:
            self._graph = graph
        if dag is not None:
            self._dag = dag
        if rank is not None:
            self._rank = np.asarray(rank, dtype=np.int64)
        return self

    @property
    def graph(self) -> CSRGraph | None:
        """The undirected graph this forest was built from (if bound)."""
        return self._graph

    @property
    def dag(self) -> CSRGraph | None:
        """The directionalized DAG the recursion ran over (if bound)."""
        return self._dag

    @property
    def rank(self) -> np.ndarray | None:
        """The rank permutation behind :attr:`dag` (if bound)."""
        return self._rank

    def apply_edits(
        self,
        edits,
        *,
        graph: CSRGraph | None = None,
        ordering=None,
        policy: str = "patch",
        reorder_ratio: float = 0.25,
        controller: RunController | None = None,
    ):
        """Apply a batch of edge insertions/deletions in place.

        ``edits`` is an in-order sequence of ``("+"|"-", u, v)``
        records; the batch's *net* effect against the bound graph is
        applied (duplicates collapse, insert-then-delete cancels,
        already-satisfied records are skipped).  Only the dirty roots —
        those whose closed DAG out-neighborhood contains both endpoints
        of some applied edit, in the old or new graph — are re-run
        through the pivot recursion, and the flat leaf arrays are
        patched in place; every root's ``per_root_work`` /
        ``per_root_memory`` is then recomputed from
        :attr:`per_root_recursion` and the edited degrees in one
        vectorized pass.  The result is bit-identical to a
        from-scratch rebuild under the same vertex order
        (``tests/test_dynamic.py``).

        ``policy`` is one of ``"patch"`` (keep the build-time order;
        default), ``"reorder"`` (full rebuild under a fresh degeneracy
        order of the edited graph), or ``"auto"`` (patch until
        cumulative edits since the last reorder exceed
        ``reorder_ratio x |E|``).  A ``controller`` is honored at
        dirty-root granularity with the usual budget/checkpoint/
        degradation semantics.  The forest's descriptor fingerprints
        (and its in-process cache slot, if any) are re-keyed to the
        edited graph, so the pre-edit graph can never be served the
        patched forest.  Returns an
        :class:`~repro.counting.dynamic.EditReport`.
        """
        from repro.counting.dynamic import apply_edits as _apply_edits

        return _apply_edits(
            self, edits, graph=graph, ordering=ordering, policy=policy,
            reorder_ratio=reorder_ratio, controller=controller,
        )

    def copy(self) -> "SCTForest":
        """An independent deep copy (arrays, counters, bindings) —
        edit one side freely, e.g. to compare incremental against
        rebuilt, or to keep a pre-edit snapshot."""
        dup = SCTForest(
            num_vertices=self.num_vertices,
            held_n=self.held_n.copy(),
            pivot_n=self.pivot_n.copy(),
            roots=self.roots.copy(),
            held_members=(
                None if self.held_members is None
                else self.held_members.copy()
            ),
            pivot_members=(
                None if self.pivot_members is None
                else self.pivot_members.copy()
            ),
            per_root_work=self.per_root_work.copy(),
            per_root_memory=self.per_root_memory.copy(),
            per_root_recursion=self.per_root_recursion.copy(),
            counters=Counters.from_dict(self.counters.as_dict()),
            descriptor=dict(self.descriptor),
            degraded_from=self.degraded_from,
        )
        dup.bind(graph=self._graph, dag=self._dag, rank=self._rank)
        dup._edits_since_reorder = self._edits_since_reorder
        return dup

    @property
    def nbytes(self) -> int:
        """Actual footprint of the materialized arrays."""
        total = (
            self.held_n.nbytes + self.pivot_n.nbytes + self.roots.nbytes
            + self.held_off.nbytes + self.pivot_off.nbytes
            + self.per_root_work.nbytes + self.per_root_memory.nbytes
            + self.per_root_recursion.nbytes
        )
        if self.held_members is not None:
            total += self.held_members.nbytes
        if self.pivot_members is not None:
            total += self.pivot_members.nbytes
        return total

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        ordering: Ordering | np.ndarray | CSRGraph,
        structure: str | SubgraphStructure = "remap",
        kernel: str | None = None,
        *,
        controller: RunController | None = None,
        members: bool = True,
    ) -> "SCTForest":
        """Run the pivot recursion once and materialize every leaf.

        ``members=False`` skips the held/pivot member id recording —
        counting queries stay exact, attribution queries raise.  A
        ``controller`` is honored at root granularity exactly like the
        direct engines: deadline/node budgets and checkpoint/resume; a
        crossed memory watermark raises, or spills the memberships when
        degradation is enabled.
        """
        kernels.kernel_name(kernel)
        if graph.directed:
            raise CountingError("input graph must be undirected")
        rank: np.ndarray | None = None
        if isinstance(ordering, CSRGraph):
            if not ordering.directed:
                raise CountingError("pass a DAG or an ordering, not a 2nd graph")
            dag = ordering
        else:
            dag = directionalize(graph, ordering)
            rank = np.asarray(
                ordering.rank if isinstance(ordering, Ordering) else ordering,
                dtype=np.int64,
            )
        if isinstance(structure, SubgraphStructure):
            struct = structure
        else:
            try:
                struct = STRUCTURES[structure](graph, dag)
            except KeyError:
                raise CountingError(
                    f"unknown structure {structure!r}; "
                    f"expected one of {sorted(STRUCTURES)}"
                ) from None
        forest = cls._build_impl(
            graph, dag, struct, controller=controller, members=members
        )
        return forest.bind(graph=graph, dag=dag, rank=rank)

    @classmethod
    def _build_impl(
        cls,
        graph: CSRGraph,
        dag: CSRGraph,
        struct: SubgraphStructure,
        *,
        controller: RunController | None,
        members: bool,
    ) -> "SCTForest":
        ctl = controller
        n = graph.num_vertices
        totals = Counters()
        per_root_work = np.zeros(n, dtype=np.float64)
        per_root_memory = np.zeros(n, dtype=np.float64)
        per_root_recursion = np.zeros(n, dtype=np.float64)
        lists = _LeafLists(members)
        start = 0
        done = 0
        degraded_from: str | None = None

        descriptor = {
            "engine": "sct-forest",
            "structure": struct.name,
            "kernel": kernels.NAME,
            "members": bool(members),
            "graph_fingerprint": graph_fingerprint(graph),
            "dag_fingerprint": graph_fingerprint(dag),
        }

        if ctl is not None:
            def snapshot() -> dict:
                hm, pm = lists.held_members, lists.pivot_members
                return {
                    "next_root": done,
                    "held_n": list(lists.held_n),
                    "pivot_n": list(lists.pivot_n),
                    "roots": list(lists.roots),
                    "held_members": None if hm is None else list(hm),
                    "pivot_members": None if pm is None else list(pm),
                    "counters": totals.as_dict(),
                    "per_root_work": per_root_work[:done].tolist(),
                    "per_root_memory": per_root_memory[:done].tolist(),
                    "per_root_recursion": per_root_recursion[:done].tolist(),
                    "degraded_from": degraded_from,
                    "spilled": hm is None,
                }

            state = ctl.begin(descriptor, snapshot)
            if state is not None:
                start = done = int(state["next_root"])
                lists.held_n = [int(x) for x in state["held_n"]]
                lists.pivot_n = [int(x) for x in state["pivot_n"]]
                lists.roots = [int(x) for x in state["roots"]]
                stored_h = state.get("held_members")
                stored_p = state.get("pivot_members")
                if (state.get("spilled") or stored_h is None
                        or stored_p is None):
                    lists.held_members = lists.pivot_members = None
                else:
                    lists.held_members = [int(x) for x in stored_h]
                    lists.pivot_members = [int(x) for x in stored_p]
                totals = Counters.from_dict(state["counters"])
                per_root_work[:start] = state["per_root_work"]
                per_root_memory[:start] = state["per_root_memory"]
                per_root_recursion[:start] = state["per_root_recursion"]
                degraded_from = state.get("degraded_from")

        def spill() -> None:
            nonlocal degraded_from
            lists.held_members = lists.pivot_members = None
            obs.degradation("member_spill", engine="sct-forest")
            if degraded_from is None:
                degraded_from = "members"

        calls = obs.kernel_tally()

        def visit(v: int, ctx: RootContext) -> tuple:
            return collect_root_leaves(
                v, ctx, record_members=lists.held_members is not None,
                calls=calls,
            )

        def fold(v: int, record: tuple) -> None:
            nonlocal done
            _, peak, ctr, leaves = record
            if ctl is not None:
                # The forest with this root's leaves in it is metered
                # before they land, so an abort leaves whole roots.
                try:
                    ctl.note_memory(max(peak, lists.model_bytes(leaves)))
                except MemoryBudgetExceededError:
                    # The degradation rung: spill the member arrays and
                    # keep the exact counts-only forest.
                    if not ctl.degrade or lists.held_members is None:
                        raise
                    spill()
                    ctl.note_memory(max(peak, lists.model_bytes(leaves)))
            lists.append(v, leaves)
            per_root_work[v] = ctr.work
            per_root_memory[v] = peak
            per_root_recursion[v] = ctr.recursion_work
            totals.merge(ctr)
            done = v + 1

        span_attrs = {"engine": "sct-forest", "structure": struct.name,
                      "kernel": kernels.NAME, "members": bool(members)}
        if obs.get_tracer().enabled:
            span_attrs["graph"] = descriptor["graph_fingerprint"]
        with obs.span("forest.build", **span_attrs), obs.phase(
            "forest_build"
        ):
            run_roots(
                struct, np.arange(start, n, dtype=np.int64), visit, fold,
                totals, engine="sct-forest", controller=ctl, calls=calls,
            )
        reg = obs.get_registry()
        if reg.enabled:
            reg.gauge("forest_leaves").set(len(lists.held_n))
            reg.gauge("forest_model_bytes").set(lists.model_bytes())

        descriptor["members"] = lists.held_members is not None
        return cls(
            num_vertices=n,
            **lists.arrays(),
            per_root_work=per_root_work,
            per_root_memory=per_root_memory,
            per_root_recursion=per_root_recursion,
            counters=totals,
            descriptor=descriptor,
            degraded_from=degraded_from,
        )

    # ------------------------------------------------------------------
    # counting queries — exact folds over the (|H|, |Π|) pair table
    # ------------------------------------------------------------------
    @staticmethod
    def _record_query(query: str) -> None:
        reg = obs.get_registry()
        if reg.enabled:
            reg.counter("forest_queries_total", query=query).inc()

    def count(self, k: int) -> int:
        """Exact number of k-cliques, identical to
        :meth:`SCTEngine.count(k).count <repro.counting.sct.SCTEngine.count>`."""
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        self._record_query("count")
        total = 0
        for h, p, m in self._pairs:
            c = binomial(p, k - h)
            if c:
                total += m * c
        return total

    def count_all(self, max_k: int | None = None) -> list[int]:
        """Per-size clique counts, identical to
        :meth:`SCTEngine.count_all(...).all_counts
        <repro.counting.sct.SCTEngine.count_all>` (trailing zeros
        trimmed, at least ``[0]``)."""
        if max_k is not None and max_k < 1:
            raise CountingError("max_k must be >= 1")
        self._record_query("count_all")
        cap = None if max_k is None else max_k + 1
        top = 0
        for h, p, _ in self._pairs:
            top = max(top, h + p)
        length = max(top + 1, 2)
        if cap is not None:
            length = min(length, max(cap, 2))
        counts = [0] * length
        for h, p, m in self._pairs:
            brow = binomial_row(p)
            hi = min(h + p + 1, cap if cap is not None else h + p + 1, length)
            for s in range(h, hi):
                counts[s] += m * brow[s - h]
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        return counts

    def max_clique_size(self) -> int:
        """The graph's ``k_max`` — the deepest ``|H| + |Π|`` leaf."""
        self._record_query("max_clique_size")
        top = 0
        for h, p, _ in self._pairs:
            top = max(top, h + p)
        return top

    # ------------------------------------------------------------------
    # attribution queries — Sec. V-A formulas over stored memberships
    # ------------------------------------------------------------------
    def _require_members(self, what: str) -> None:
        if not self.has_members:
            raise CountingError(
                f"{what} needs leaf memberships, but this forest was built "
                "without them (members=False or memory spill); rebuild with "
                "members enabled or use the direct engine"
            )

    def _leaf_coeffs(self, k: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """Per-leaf ``(C(p, k-h), C(p-1, k-h-1))`` as int64 arrays, plus
        whether the int64 fast path is provably overflow-free."""
        safe = self.count(k) < _INT64_SAFE
        if not safe:
            return np.zeros(0), np.zeros(0), False
        c_held = np.fromiter(
            (binomial(p, k - h) for h, p, _ in self._pairs),
            dtype=np.int64, count=len(self._pairs),
        )
        c_piv = np.fromiter(
            (binomial(p - 1, k - h - 1) for h, p, _ in self._pairs),
            dtype=np.int64, count=len(self._pairs),
        )
        return c_held[self._pair_inv], c_piv[self._pair_inv], True

    def per_vertex(self, k: int) -> list[int]:
        """Number of k-cliques containing each vertex — identical to
        :func:`repro.counting.pervertex.per_vertex_counts`."""
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        self._record_query("per_vertex")
        self._require_members("per-vertex attribution")
        n = self.num_vertices
        if self.num_leaves == 0:
            return [0] * n
        c_held, c_piv, safe = self._leaf_coeffs(k)
        if safe:
            per = np.zeros(n, dtype=np.int64)
            np.add.at(per, self.held_members,
                      np.repeat(c_held, self.held_n))
            np.add.at(per, self.pivot_members,
                      np.repeat(c_piv, self.pivot_n))
            return per.tolist()
        # Exact big-int fallback for astronomically clique-rich graphs.
        per_list = [0] * n
        hm = self.held_members.tolist()
        pm = self.pivot_members.tolist()
        ho = self.held_off.tolist()
        po = self.pivot_off.tolist()
        for i, (h, p) in enumerate(zip(self.held_n.tolist(),
                                       self.pivot_n.tolist())):
            c = binomial(p, k - h)
            if c == 0:
                continue
            for u in hm[ho[i]:ho[i + 1]]:
                per_list[u] += c
            c_in = binomial(p - 1, k - h - 1)
            if c_in:
                for u in pm[po[i]:po[i + 1]]:
                    per_list[u] += c_in
        return per_list

    def per_edge(self, k: int) -> dict[tuple[int, int], int]:
        """k-clique count per edge — identical to
        :func:`repro.counting.peredge.per_edge_counts`."""
        from itertools import combinations

        if k < 2:
            raise CountingError(f"per-edge counts need k >= 2, got {k}")
        self._record_query("per_edge")
        self._require_members("per-edge attribution")
        per: dict[tuple[int, int], int] = {}
        hm = self.held_members.tolist()
        pm = self.pivot_members.tolist()
        ho = self.held_off.tolist()
        po = self.pivot_off.tolist()
        for i, (h, p) in enumerate(zip(self.held_n.tolist(),
                                       self.pivot_n.tolist())):
            j = k - h
            c_all = binomial(p, j)
            if c_all == 0:
                continue
            held = hm[ho[i]:ho[i + 1]]
            piv = pm[po[i]:po[i + 1]]
            c_hp = binomial(p - 1, j - 1)
            c_pp = binomial(p - 2, j - 2)
            for a, b in combinations(held, 2):
                key = (a, b) if a < b else (b, a)
                per[key] = per.get(key, 0) + c_all
            if c_hp:
                for a in held:
                    for b in piv:
                        key = (a, b) if a < b else (b, a)
                        per[key] = per.get(key, 0) + c_hp
            if c_pp:
                for a, b in combinations(piv, 2):
                    key = (a, b) if a < b else (b, a)
                    per[key] = per.get(key, 0) + c_pp
        return per

    def profiles(self, max_k: int | None = None) -> list[list[int]]:
        """Per-vertex clique profiles — identical to
        :func:`repro.counting.profiles.per_vertex_profiles`
        (``result[v][s]`` = s-cliques containing ``v``)."""
        self._record_query("profiles")
        self._require_members("profile attribution")
        n = self.num_vertices
        if n == 0:
            return []
        dist = self.count_all(max_k)
        width = max(len(dist), 2)
        columns = [[0] * n]
        for s in range(1, width):
            columns.append(self.per_vertex(s))
        return [[columns[s][v] for s in range(width)] for v in range(n)]

    # ------------------------------------------------------------------
    # sampling — uniform k-cliques by leaf-weighted selection
    # ------------------------------------------------------------------
    def sample_cliques(
        self,
        k: int,
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[tuple[int, ...]]:
        """Draw ``n_samples`` uniform k-cliques (with replacement).

        Every k-clique lives in exactly one leaf family, so sampling a
        leaf with probability proportional to its ``C(|Π|, k - |H|)``
        weight and then ``k - |H|`` of its pivots uniformly without
        replacement is an exactly-uniform clique sampler.  Deterministic
        under a seeded ``rng``.
        """
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        if n_samples < 0:
            raise CountingError("n_samples must be >= 0")
        self._record_query("sample_cliques")
        self._require_members("clique sampling")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        weights = [0] * len(self._pairs)
        for i, (h, p, _) in enumerate(self._pairs):
            weights[i] = binomial(p, k - h)
        if not any(weights):
            raise CountingError(f"graph has no {k}-cliques to sample")
        # Scale exact int weights into float64 range before normalizing
        # (clique counts can exceed 1e308 on pathological inputs).
        top = max(weights)
        shift = max(0, top.bit_length() - 512)
        per_leaf = np.array(
            [float(weights[i] >> shift) for i in self._pair_inv],
            dtype=np.float64,
        )
        probs = per_leaf / per_leaf.sum()
        chosen = rng.choice(self.num_leaves, size=n_samples, p=probs)
        hm = self.held_members
        pm = self.pivot_members
        ho = self.held_off
        po = self.pivot_off
        out: list[tuple[int, ...]] = []
        for leaf in chosen:
            i = int(leaf)
            held = hm[ho[i]:ho[i + 1]].tolist()
            j = k - len(held)
            if j:
                piv = pm[po[i]:po[i + 1]]
                picked = rng.choice(piv.size, size=j, replace=False)
                held.extend(int(piv[x]) for x in picked)
            out.append(tuple(sorted(held)))
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike[str], *, faults=None) -> None:
        """Write the forest to ``path`` as a compressed ``.npz``.

        The write goes through :mod:`repro.shard.safeio` (temp file +
        fsync + rename), so a crash mid-save leaves the previous
        artifact intact; ``faults`` threads an I/O
        :class:`~repro.runtime.faults.FaultPlan` into the write for
        fault-injection tests.
        """
        meta = {
            "format_version": FOREST_FORMAT_VERSION,
            "num_vertices": self.num_vertices,
            "descriptor": self.descriptor,
            "counters": self.counters.as_dict(),
            "degraded_from": self.degraded_from,
            "has_members": self.has_members,
        }
        arrays = {
            "held_n": self.held_n,
            "pivot_n": self.pivot_n,
            "roots": self.roots,
            "per_root_work": self.per_root_work,
            "per_root_memory": self.per_root_memory,
            "per_root_recursion": self.per_root_recursion,
            "meta_json": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        if self.has_members:
            arrays["held_members"] = self.held_members
            arrays["pivot_members"] = self.pivot_members
        from repro.shard import safeio

        buf = io.BytesIO()
        try:
            np.savez_compressed(buf, **arrays)
            safeio.atomic_write_bytes(path, buf.getvalue(), faults=faults)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write forest {path}: {exc}"
            ) from exc

    @classmethod
    def load(
        cls,
        path: str | os.PathLike[str],
        expect_descriptor: dict | None = None,
    ) -> "SCTForest":
        """Load a saved forest, optionally validating its identity.

        ``expect_descriptor`` entries must match the stored descriptor
        exactly (same graph/DAG fingerprints, structure, kernel) —
        serving queries from the wrong graph's forest would silently
        return wrong counts.

        A truncated or corrupt file (bad zip container, damaged
        deflate stream, unreadable metadata) raises
        :class:`~repro.errors.ForestFormatError` naming the path, after
        quarantining the file as ``<path>.corrupt`` so a rebuild can
        re-save under the original name; a *missing* file or an
        identity/version mismatch raises plain
        :class:`~repro.errors.CheckpointError` and leaves the file
        alone (it is not damaged, just not the artifact this run
        needs).
        """
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
                if meta.get("format_version") != FOREST_FORMAT_VERSION:
                    raise CheckpointError(
                        f"forest {path} has format version "
                        f"{meta.get('format_version')!r}, expected "
                        f"{FOREST_FORMAT_VERSION}"
                    )
                stored = meta.get("descriptor") or {}
                if expect_descriptor is not None:
                    for key, want in expect_descriptor.items():
                        got = stored.get(key)
                        if got != want:
                            raise CheckpointError(
                                f"forest {path} was built for {key}={got!r}, "
                                f"this query needs {key}={want!r}"
                            )
                has_members = bool(meta.get("has_members"))
                return cls(
                    num_vertices=int(meta["num_vertices"]),
                    held_n=data["held_n"],
                    pivot_n=data["pivot_n"],
                    roots=data["roots"],
                    held_members=(
                        data["held_members"] if has_members else None
                    ),
                    pivot_members=(
                        data["pivot_members"] if has_members else None
                    ),
                    per_root_work=data["per_root_work"],
                    per_root_memory=data["per_root_memory"],
                    per_root_recursion=data["per_root_recursion"],
                    counters=Counters.from_dict(meta.get("counters", {})),
                    descriptor=stored,
                    degraded_from=meta.get("degraded_from"),
                )
        except FileNotFoundError as exc:
            raise CheckpointError(f"cannot read forest {path}: {exc}") from exc
        except (
            OSError,
            KeyError,
            ValueError,
            EOFError,
            zipfile.BadZipFile,
            zlib.error,
        ) as exc:
            # np.load on a truncated/bit-rotted .npz surfaces any of
            # these raw container errors; quarantine and raise typed.
            from repro.shard import safeio

            quarantined = safeio.quarantine(path)
            raise ForestFormatError(
                f"corrupt forest {path}: {type(exc).__name__}: {exc} "
                f"(quarantined to {quarantined})"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SCTForest leaves={self.num_leaves} n={self.num_vertices} "
            f"members={self.has_members} bytes={self.nbytes}>"
        )


# ----------------------------------------------------------------------
# the leaf walker: the one pivot traversal every leaf consumer drives
# ----------------------------------------------------------------------
def walk_root(
    ctx: RootContext, v: int, ctr: Counters, leaf, *,
    k: int | None = None, cap: int | None = None,
) -> None:
    """Walk root ``v``'s pivot tree over its built context ``ctx``,
    calling ``leaf(held, pivots, held_ids, pivot_ids)`` at every leaf,
    and charge the walk to ``ctr`` (:meth:`Counters.charge_root`).

    ``held`` / ``pivots`` are the leaf's ``|H|`` / ``|Π|``;
    ``held_ids`` / ``pivot_ids`` are the walk's *live* member lists
    (global ids, ``v`` first), so a sink that keeps them must copy.
    At most one of ``k`` / ``cap`` is given:

    * ``k`` walks exactly :meth:`SCTEngine.count
      <repro.counting.sct.SCTEngine.count>`'s target-k tree: a node
      whose held set reaches ``k`` is a leaf, and one whose reach
      ``|H| + |Π| + |P|`` falls short of ``k`` is pruned;
    * ``cap`` cuts every branch whose held set reaches ``cap`` (the
      all-k tree truncated to cliques below ``cap``);
    * neither walks the full tree — the forest's.
    """
    rows = ctx.rows
    pivot_select = kernels.pivot_select
    out = ctx.out.tolist()
    held_ids: list[int] = [v]
    pivot_ids: list[int] = []
    acc = [0, 0, 0, 0, 0, 0, 0]
    # A held set reaching `stop` ends the branch: at a leaf under `k`,
    # cut under `cap`; the full tree never gets there (|H| <= d + 1).
    stop = k if k is not None else cap if cap is not None else ctx.d + 2
    cut = k is None
    reach = k or 0

    def rec(P: int, pc: int, held: int, pivots: int) -> None:
        acc[0] += 1
        if held >= stop:
            if cut:
                acc[2] += 1
                return
        elif pc:
            if reach and held + pivots + pc < reach:
                acc[2] += 1
                return
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            pivot_ids.append(out[best])
            rec(best_row, best_cnt, held, pivots + 1)
            pivot_ids.pop()
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                child = rows[w] & P
                cc = child.bit_count()
                edge_sum += cc
                held_ids.append(out[w])
                rec(child, cc, held1, pivots)
                held_ids.pop()
                P ^= low
                cand ^= low
            acc[6] += edge_sum
            return
        acc[1] += 1
        depth = held + pivots
        if depth > acc[5]:
            acc[5] = depth
        leaf(held, pivots, held_ids, pivot_ids)

    rec((1 << ctx.d) - 1, ctx.d, 1, 0)
    ctr.charge_root(ctx, acc)


def collect_root_leaves(
    v: int, ctx: RootContext, *, record_members: bool = True,
    calls: list[int] | None = None,
) -> tuple:
    """Walk root ``v``'s full tree over its built context ``ctx`` and
    return the root's record for :func:`~repro.counting.roots.run_roots`:
    ``(nodes, peak bytes, counters, leaves)``, each leaf ``(|H|, |Π|,
    held_ids, pivot_ids)`` (ids ``None`` when ``record_members`` is
    off), the walk's kernel calls tallied into ``calls``.  It is the
    per-root function the serial and parallel forest builds and the
    dirty-root recompute share, so leaves gathered by any of them in
    any order reassemble into a bit-identical forest."""
    ctr = Counters()
    leaves: list = []
    append = leaves.append
    if record_members:
        def leaf(held, pivots, held_ids, pivot_ids):
            append((held, pivots, tuple(held_ids), tuple(pivot_ids)))
    else:
        def leaf(held, pivots, held_ids, pivot_ids):
            append((held, pivots, None, None))
    walk_root(ctx, v, ctr, leaf)
    if calls is not None:
        kernels.tally(calls, ctr, 1, ctx.d > 0)
    return ctr.function_calls, ctr.peak_subgraph_bytes, ctr, leaves


class _LeafLists:
    """A forest's leaf arrays as lists while roots fold in, in root
    order.  The serial build's fold and the parallel build's reassembly
    both append through :meth:`append`, so they lay out the same
    arrays.  ``held_members`` / ``pivot_members`` are ``None`` when
    members are not recorded (or were spilled)."""

    def __init__(self, members: bool) -> None:
        self.held_n: list[int] = []
        self.pivot_n: list[int] = []
        self.roots: list[int] = []
        self.held_members: list[int] | None = [] if members else None
        self.pivot_members: list[int] | None = [] if members else None

    def append(self, v: int, leaves: list) -> None:
        """Append root ``v``'s leaves, in their walk order."""
        held_n, pivot_n, roots = self.held_n, self.pivot_n, self.roots
        held_members, pivot_members = self.held_members, self.pivot_members
        for h_count, p_count, h_ids, p_ids in leaves:
            held_n.append(h_count)
            pivot_n.append(p_count)
            roots.append(v)
            if held_members is not None and h_ids is not None:
                held_members.extend(h_ids)
                pivot_members.extend(p_ids)

    def model_bytes(self, leaves: list = ()) -> int:
        """The modeled bytes of the arrays once ``leaves`` are
        appended."""
        total = _LEAF_BYTES * (len(self.held_n) + len(leaves))
        if self.held_members is not None:
            total += _MEMBER_BYTES * (
                len(self.held_members) + len(self.pivot_members)
                + sum(len(h) + len(p) for _, _, h, p in leaves)
            )
        return total

    def arrays(self) -> dict:
        """The :class:`SCTForest` leaf arrays, as keyword arguments."""
        return {
            name: None if ids is None else np.asarray(ids, dtype=np.int32)
            for name, ids in (
                ("held_n", self.held_n), ("pivot_n", self.pivot_n),
                ("roots", self.roots), ("held_members", self.held_members),
                ("pivot_members", self.pivot_members),
            )
        }


def attribution_structure(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
) -> SubgraphStructure:
    """The structure an attribution engine walks, over ``graph`` and
    the DAG of ``ordering`` (or ``ordering`` itself when it is one)."""
    if graph.directed:
        raise CountingError("input graph must be undirected")
    if isinstance(ordering, CSRGraph):
        dag = ordering
        if not dag.directed:
            raise CountingError("pass a DAG or an ordering")
    else:
        dag = directionalize(graph, ordering)
    return STRUCTURES[structure](graph, dag)


def walk_roots(
    struct: SubgraphStructure, roots, leaf, *,
    k: int | None = None, cap: int | None = None,
    controller: RunController | None = None, engine: str = "",
) -> Counters:
    """:func:`walk_root` over every root of ``roots`` in order, through
    :func:`~repro.counting.roots.run_roots` — the root loop of the
    attribution engines.  Returns the summed counters, also published
    under ``engine``.

    A ``controller`` is begun under an ``engine`` descriptor and
    consulted at root granularity for budgets and fault injection.
    Attribution keeps no checkpoint state: a budget abort discards the
    run.
    """
    ctl = controller
    if ctl is not None:
        ctl.begin({
            "engine": engine,
            "k": k,
            "structure": struct.name,
            "kernel": kernels.NAME,
            "graph": graph_fingerprint(struct.graph),
        })
    totals = Counters()
    calls = obs.kernel_tally()

    def visit(v: int, ctx: RootContext) -> tuple:
        ctr = Counters()
        walk_root(ctx, v, ctr, leaf, k=k, cap=cap)
        if calls is not None:
            kernels.tally(calls, ctr, 1, ctx.d > 0)
        return ctr.function_calls, ctr.peak_subgraph_bytes, ctr

    def fold(v: int, record: tuple) -> None:
        totals.merge(record[2])

    run_roots(
        struct, roots, visit, fold, totals, engine=engine, controller=ctl,
        calls=calls,
    )
    return totals


# ----------------------------------------------------------------------
# cache + convenience entry points
# ----------------------------------------------------------------------
_CACHE: "OrderedDict[tuple, SCTForest]" = OrderedDict()
_CACHE_MAX = 8


def forest_cache_key(
    graph: CSRGraph,
    dag: CSRGraph,
    structure: str,
    kernel: str,
    members: bool = True,
) -> tuple:
    """The in-process cache key: the descriptor fingerprints."""
    return (
        graph_fingerprint(graph),
        graph_fingerprint(dag),
        structure,
        kernel,
        bool(members),
    )


def clear_forest_cache() -> None:
    """Drop every cached forest (tests / memory pressure)."""
    _CACHE.clear()


def _descriptor_cache_key(descriptor: dict) -> tuple:
    return (
        descriptor.get("graph_fingerprint"),
        descriptor.get("dag_fingerprint"),
        descriptor.get("structure"),
        descriptor.get("kernel"),
        bool(descriptor.get("members")),
    )


def _rekey_cached_forest(forest: SCTForest, old_descriptor: dict) -> None:
    """Move a just-edited forest's cache slot to its new fingerprints.

    ``apply_edits`` patches the forest object *in place*, so if that
    object is sitting in the in-process cache it is now filed under the
    **pre-edit** graph's fingerprints — and the pre-edit graph is
    usually still alive, so a later ``get_forest`` on it would be
    served the edited (wrong) forest.  Pop the old slot (only when it
    holds this exact object) and re-file under the post-edit
    descriptor.  No-op for uncached forests.
    """
    old_key = _descriptor_cache_key(old_descriptor)
    entry = _CACHE.pop(old_key, None)
    if entry is None:
        return
    if entry is not forest:
        _CACHE[old_key] = entry  # someone else's (correct) forest
        return
    _CACHE[_descriptor_cache_key(forest.descriptor)] = forest


def build_forest(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str | SubgraphStructure = "remap",
    kernel: str | None = None,
    *,
    controller: RunController | None = None,
    members: bool = True,
) -> SCTForest:
    """Uncached one-shot build (see :func:`get_forest` for caching)."""
    return SCTForest.build(
        graph, ordering, structure, kernel,
        controller=controller, members=members,
    )


def get_forest(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    kernel: str | None = None,
    *,
    controller: RunController | None = None,
    members: bool = True,
    cache: bool = True,
) -> SCTForest:
    """Build-or-fetch the forest for ``(graph, ordering, structure,
    kernel)``; repeat calls with the same fingerprints are free."""
    if isinstance(ordering, CSRGraph):
        dag = ordering
    else:
        dag = directionalize(graph, ordering)
    key = forest_cache_key(
        graph, dag, structure, kernels.kernel_name(kernel), members
    )
    reg = obs.get_registry()
    if cache and key in _CACHE:
        if reg.enabled:
            reg.counter("forest_cache_hits_total").inc()
        _CACHE.move_to_end(key)
        return _CACHE[key]
    # Every get_forest call is exactly one hit or one miss (cache=False
    # is a miss): hits + misses == calls, pinned by tests/test_obs.py.
    if reg.enabled:
        reg.counter("forest_cache_misses_total").inc()
    forest = SCTForest.build(
        graph, dag, structure, controller=controller, members=members
    )
    if not isinstance(ordering, CSRGraph):
        # build() saw only the DAG; keep the rank so apply_edits can
        # maintain the order without re-deriving it.
        forest.bind(
            rank=np.asarray(
                ordering.rank if isinstance(ordering, Ordering)
                else ordering,
                dtype=np.int64,
            )
        )
    if cache:
        _CACHE[key] = forest
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return forest


def load_forest(
    path: str | os.PathLike[str],
    graph: CSRGraph | None = None,
) -> SCTForest:
    """Load a saved forest; with ``graph`` given, refuse a mismatch."""
    expect = None
    if graph is not None:
        expect = {"graph_fingerprint": graph_fingerprint(graph)}
    return SCTForest.load(path, expect_descriptor=expect)


def load_or_rebuild_forest(
    path: str | os.PathLike[str],
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph | None = None,
    structure: str = "remap",
    kernel: str | None = None,
    *,
    controller: RunController | None = None,
) -> tuple[SCTForest, bool]:
    """Load ``path``, or rebuild from ``graph`` if the file is corrupt.

    Returns ``(forest, rebuilt)``.  Only the *corrupt-artifact* case
    (:class:`~repro.errors.ForestFormatError` — the load already
    quarantined the file) falls back to a rebuild; a missing file or an
    identity mismatch still raises, since rebuilding would silently
    paper over pointing a run at the wrong artifact.  The rebuilt
    forest is re-saved under the original name (best-effort) to heal
    the artifact for the next run.  ``ordering`` defaults to the
    degeneracy core ordering — the same default the CLI uses to build
    forests in the first place.
    """
    try:
        return load_forest(path, graph), False
    except ForestFormatError as exc:
        warnings.warn(
            f"rebuilding forest: {exc}", DegradedResultWarning, stacklevel=2
        )
        obs.degradation("forest_rebuild", path=os.fspath(path))
        if ordering is None:
            from repro.ordering.core import core_ordering

            ordering = core_ordering(graph)
        forest = get_forest(
            graph, ordering, structure, kernel, controller=controller
        )
        try:
            forest.save(path)
        except CheckpointError:
            pass  # healing is best-effort; the in-memory forest serves
        return forest, True
