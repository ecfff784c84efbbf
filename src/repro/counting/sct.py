"""The SCT (succinct clique tree) pivot recursion — paper Algorithm 1.

For each root vertex ``v`` of the DAG, the engine builds the induced
subgraph over ``v``'s out-neighborhood (symmetrized, per Sec. V-A) and
explores it with Bron-Kerbosch-style pivoting: at every node it picks
the pivot ``p`` maximizing ``|N(p) ∩ P|``, recurses once on ``N(p) ∩ P``
with ``p`` recorded as *optional* (a pivot), and once per non-neighbor
``w`` of ``p`` with ``w`` recorded as *required* (held).  Each leaf
therefore encodes the clique family ``{H ∪ S : S ⊆ Π}`` exactly once,
and contributes ``C(|Π|, k - |H|)`` k-cliques — the reason Pivoter's
cost is independent of ``k``.

Candidate sets are Python big-int bitsets passed down the recursion
(playing the role of the C++ reversible subgraph mutations, see
DESIGN.md), and adjacency rows are big-ints too (:mod:`repro.kernels`):
the pivot scan (:func:`~repro.kernels.pivot_select`) and the inline
branch intersect do the work of the paper's word-parallel set
operations as big-int ``&`` / ``int.bit_count()``.

Implementation subtleties carried over from Sec. V-A:

* early exit when the held set alone reaches ``k`` (one k-clique
  remains in the subtree: the held set itself);
* early termination when ``|H| + |Π| + |P| < k`` (target too far);
* the all-k variant reuses the same tree and charges a whole binomial
  row per leaf.

A root's tree depends only on its induced subgraph, and on sparse
graphs most roots repeat a subgraph another root already has.  The
root loop therefore counts each distinct block-induced subgraph once
per loop call: a repeat folds its first occurrence's stored tally (see
:meth:`SCTEngine._fold_roots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from repro import kernels, obs
from repro.counting.binomial import binomial, binomial_row
from repro.counting.counters import Counters
from repro.counting.roots import run_roots
from repro.counting.structures import STRUCTURES, SubgraphStructure
from repro.errors import BudgetExceededError, CheckpointError, CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.runtime.checkpoint import graph_fingerprint
from repro.runtime.controller import RunController

__all__ = [
    "SCTEngine",
    "CountResult",
    "RootBatchResult",
    "PartialCounts",
    "count_kcliques",
    "count_all_sizes",
]

#: Distinct root subgraphs one root loop remembers, and distinct
#: subtrees one root's recursion remembers; past this many each stops
#: inserting.  A root key is at most 512 bytes (64 one-word rows).
_MEMO_MAX = 1 << 14

#: The subtree memo looks up only nodes with at least this many
#: candidates: below it a subtree is too cheap to be worth a key.
_NODE_MEMO_MIN_PC = 6

#: Length of a recursion's ``acc`` list: :meth:`Counters.charge_root`'s
#: seven slots, then the subtree memo's skipped nodes, skipped leaves
#: and early exits, hits and misses (see :meth:`SCTEngine._make_rec_k`).
_ACC_SLOTS = 11


class _RootTally(NamedTuple):
    """One root's share of a run, save its ``build_words``: the fields
    of its own :class:`Counters` and its count.  All of it is a function
    of the root's induced subgraph, so the root loop stores it per
    subgraph and folds a repeat's copy.  It is the root's record for
    :func:`~repro.counting.roots.run_roots`, which reads the first two
    fields."""

    nodes: int
    memory_bytes: int
    result: int | list[int]  # the k-clique count, or the all-k row
    leaves: int
    early_exits: int
    set_op_words: float
    index_lookups: float
    max_depth: int

    @classmethod
    def of(cls, result, ctr: Counters) -> "_RootTally":
        return cls(
            ctr.function_calls, ctr.peak_subgraph_bytes, result, ctr.leaves,
            ctr.early_terminations, ctr.set_op_words, ctr.index_lookups,
            ctr.max_depth,
        )


@dataclass
class CountResult:
    """Outcome of one counting run.

    Attributes
    ----------
    count:
        Number of k-cliques (exact Python int) for target-k runs;
        ``None`` for all-k runs.
    all_counts:
        For all-k runs, ``all_counts[s]`` is the number of s-cliques,
        ``s = 0 .. max clique size`` (trailing zeros trimmed).
    k:
        The target clique size (``None`` for all-k).
    counters:
        Aggregated instrumentation for the whole run.
    per_root_work:
        Work units per root vertex — the task sizes the parallel
        scheduler model distributes across threads.
    per_root_memory:
        Modeled per-root subgraph footprint in bytes (peak drives the
        cache model).
    structure:
        Name of the subgraph structure used.
    kernel:
        Name of the bitset-kernel backend used.
    approximate:
        True when budget exhaustion degraded the run to sampling:
        ``count`` / ``all_counts`` then mix exact per-root counts with
        an unbiased estimate for the remaining roots and are floats.
    degraded_from:
        What the run degraded away from, or ``None`` for a clean run
        (e.g. ``"exact"`` after budget exhaustion → sampling;
        comma-joined when several rungs engaged).
    """

    count: int | float | None
    all_counts: list[int] | list[float] | None
    k: int | None
    counters: Counters
    per_root_work: np.ndarray
    per_root_memory: np.ndarray
    structure: str
    kernel: str = "bigint"
    approximate: bool = False
    degraded_from: str | None = None

    @property
    def max_clique_size(self) -> int:
        """Largest clique size observed (all-k runs only)."""
        if self.all_counts is None:
            raise CountingError("max_clique_size requires an all-k run")
        return len(self.all_counts) - 1


@dataclass
class RootBatchResult:
    """Outcome of counting one batch of root vertices — the parallel
    runtime's chunk result (see :meth:`SCTEngine.count_roots`).

    ``per_root_work`` / ``per_root_memory`` are aligned with ``roots``
    (entry ``i`` belongs to ``roots[i]``), not indexed by vertex id, so
    a chunk result stays compact regardless of which roots it covers.
    For target-k batches ``count`` holds the partial total and
    ``all_counts`` is ``None``; for all-k batches ``all_counts`` is an
    *untrimmed* row of the caller-specified length (parents fold rows
    from many chunks and trim once at the end), and ``count`` is 0.
    """

    roots: list[int]
    count: int
    all_counts: list[int] | None
    counters: Counters
    per_root_work: list[float]
    per_root_memory: list[float]

    def record(self) -> dict:
        """The batch as a JSON-ready partial-count record, the form a
        pool chunk crosses back to the parent in and a shard's ledger
        entry stores; :meth:`PartialCounts.fold` folds it."""
        return {
            "count": self.count,
            "all_counts": self.all_counts,
            "counters": self.counters.as_dict(),
            "per_root_work": list(self.per_root_work),
            "per_root_memory": list(self.per_root_memory),
        }


class PartialCounts:
    """Exact partial counts over disjoint root sets, folded into one run.

    The reduce of the map over root batches: the process pool folds
    each chunk's record here and the shard executor each shard's, and a
    budget abort hands the sampling rung what was folded so far (see
    :class:`~repro.errors.BudgetExceededError`).  ``all_counts`` is
    ``None`` for a target-k run; for all-k it starts at ``length``
    entries and grows to the longest row folded.  ``done`` marks the
    roots folded, and ``degraded_from`` the first rung a folded record
    went through.
    """

    def __init__(self, num_vertices: int, k: int | None, length: int = 2):
        self.k = k
        self.total = 0
        self.all_counts: list[int] | None = (
            None if k is not None else [0] * length
        )
        self.counters = Counters()
        self.per_root_work = np.zeros(num_vertices, dtype=np.float64)
        self.per_root_memory = np.zeros(num_vertices, dtype=np.float64)
        self.done = np.zeros(num_vertices, dtype=bool)
        self.degraded_from: str | None = None

    def fold(self, roots, record: dict, degraded: str | None = None) -> None:
        """Fold ``record`` (see :meth:`RootBatchResult.record`), whose
        per-root vectors are aligned with ``roots`` (an index array or
        a slice of vertex ids); ``degraded`` names the rung that
        produced it, if any."""
        row = self.all_counts
        if row is not None:
            part = record["all_counts"] or ()
            while len(row) < len(part):
                row.append(0)
            for s, c in enumerate(part):
                if c:
                    row[s] += c
        else:
            self.total += record["count"]
        self.per_root_work[roots] = record["per_root_work"]
        self.per_root_memory[roots] = record["per_root_memory"]
        self.counters.merge(Counters.from_dict(record["counters"]))
        self.done[roots] = True
        if degraded is not None and self.degraded_from is None:
            self.degraded_from = degraded

    def result(self, structure: str, kernel: str) -> "CountResult":
        """The folded run as a :class:`CountResult` (row trimmed)."""
        row = self.all_counts
        if row is not None:
            while len(row) > 1 and row[-1] == 0:
                row.pop()
        return CountResult(
            count=None if self.k is None else self.total,
            all_counts=row,
            k=self.k,
            counters=self.counters,
            per_root_work=self.per_root_work,
            per_root_memory=self.per_root_memory,
            structure=structure,
            kernel=kernel,
            degraded_from=self.degraded_from,
        )


class SCTEngine:
    """Pivoting clique counter over a (graph, ordering-or-DAG) pair.

    Parameters
    ----------
    graph:
        The undirected input graph.
    ordering:
        An :class:`~repro.ordering.base.Ordering`, a rank array, or an
        already-directionalized DAG.
    structure:
        Subgraph structure name (``"remap"`` default) or an instance.
    kernel:
        ``None`` or ``"bigint"``, the one backend's name (see
        :func:`~repro.kernels.kernel_name`); anything else raises
        :class:`~repro.errors.CountingError`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        ordering: Ordering | np.ndarray | CSRGraph,
        structure: str | SubgraphStructure = "remap",
        kernel: str | None = None,
    ) -> None:
        kernels.kernel_name(kernel)
        if graph.directed:
            raise CountingError("input graph must be undirected")
        if isinstance(ordering, CSRGraph):
            if not ordering.directed:
                raise CountingError("pass a DAG or an ordering, not a 2nd graph")
            dag = ordering
        else:
            dag = directionalize(graph, ordering)
        self.graph = graph
        self.dag = dag
        if isinstance(structure, SubgraphStructure):
            self.structure = structure
        else:
            try:
                self.structure = STRUCTURES[structure](graph, dag)
            except KeyError:
                raise CountingError(
                    f"unknown structure {structure!r}; "
                    f"expected one of {sorted(STRUCTURES)}"
                ) from None
        self.kernel = kernels.KERNEL

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def count(
        self,
        k: int,
        *,
        early_termination: bool = True,
        controller: RunController | None = None,
    ) -> CountResult:
        """Count k-cliques exactly.

        ``early_termination`` toggles the Sec. V-A reach prune
        (``|H| + |Π| + |P| < k``); disabling it reproduces the ablation
        in ``benchmarks/bench_ablation.py``.  Counts are identical
        either way — only the tree size changes.

        ``controller`` attaches a :class:`~repro.runtime.RunController`
        for budgets, checkpoint/resume, and fault handling, checked at
        root-vertex granularity.
        """
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        return self._run(
            k=k, early_termination=early_termination, controller=controller
        )

    def count_all(
        self,
        max_k: int | None = None,
        *,
        controller: RunController | None = None,
    ) -> CountResult:
        """Count cliques of *every* size up to ``max_k`` (default: all).

        This is the "modest amount of additional work" variant the
        paper describes in Sec. V-A: the same tree, with a binomial
        row instead of a single coefficient per leaf.
        """
        return self._run(k=None, max_k=max_k, controller=controller)

    def forest(
        self,
        *,
        controller: RunController | None = None,
        members: bool = True,
        cache: bool = True,
    ):
        """Build (or fetch from the in-process cache) the materialized
        :class:`~repro.counting.forest.SCTForest` for this engine's
        (graph, DAG, structure, kernel).

        One full pivot traversal up front; every subsequent
        ``count(k)`` / ``count_all`` / ``per_vertex`` / ``per_edge`` /
        ``sample_cliques`` query is an array fold over the recorded
        leaves — the fast path when a graph is queried more than once.
        """
        from repro.counting.forest import get_forest

        return get_forest(
            self.graph,
            self.dag,
            self.structure.name,
            self.kernel.name,
            controller=controller,
            members=members,
            cache=cache,
        )

    def count_root(self, v: int, k: int) -> int:
        """Exact k-clique count of the cliques rooted at ``v`` — the
        per-root task unit (used by the root-sampling degradation
        estimator).  A root outside ``[0, n)`` or ``k < 1`` raises
        :class:`~repro.errors.CountingError`, as in :meth:`count_roots`."""
        self._check_root(v)
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        return self._count_root_k(v, k, Counters())

    def count_root_all(self, v: int, max_k: int | None = None) -> list[int]:
        """Per-size clique counts rooted at ``v`` (all-k task unit); a
        root outside ``[0, n)`` raises
        :class:`~repro.errors.CountingError`."""
        self._check_root(v)
        length, cap = self._allk_shape(max_k)
        return self._count_ctx_all(
            self.structure.build(v), cap, length, Counters()
        )

    def count_roots(
        self,
        roots,
        k: int | None = None,
        *,
        max_k: int | None = None,
        controller: RunController | None = None,
        early_termination: bool = True,
    ) -> RootBatchResult:
        """Count the cliques rooted at each vertex in ``roots`` — the
        public batch entry point the parallel workers run per chunk.

        Unlike the throwaway :meth:`count_root`, this path honors the
        full per-root cooperation protocol: obs spans/metrics, budget
        ticks and memory watermarks.  ``k=None`` produces the all-k row
        (untrimmed, of the :meth:`_allk_shape` length for ``max_k``) so
        chunk rows from different workers fold elementwise.  Roots whose
        induced subgraphs repeat within one call are counted once (see
        :meth:`_fold_roots`): results do not depend on how roots are
        batched into calls, kernel call counts do.

        An already-:meth:`~repro.runtime.RunController.begin`-started
        controller is used as-is (the parent began the run; workers and
        the fold loop just meter against it); a fresh controller is
        begun here with a batch descriptor and no snapshot provider —
        checkpointing a batch is the *caller's* job, since only the
        caller knows how chunks map onto the whole run.
        """
        roots = [int(v) for v in roots]
        if k is not None and k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        for v in roots:
            self._check_root(v)
        ctl = controller
        res = self._empty_batch(roots, k, max_k)
        if ctl is not None and not ctl.started:
            ctl.begin(self._descriptor(k, max_k) | {"batch": True})
        span = obs.span(
            "sct.count_roots", roots=len(roots), **self._span_attrs(k, max_k)
        )
        self._fold_roots(res, k, max_k, early_termination, ctl, span)
        return res

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _check_root(self, v: int) -> None:
        n = self.graph.num_vertices
        if not 0 <= v < n:
            raise CountingError(f"root vertex {v} out of range [0, {n})")

    def _allk_shape(self, max_k: int | None) -> tuple[int, int]:
        """(length of the counts row, exclusive size cap) for all-k.

        Largest possible clique = max out-degree + 1 (root + subgraph).
        """
        size_cap = self.dag.max_degree + 2
        if max_k is not None:
            size_cap = min(size_cap, max_k + 1)
        length = max(size_cap, 2)
        cap = length if max_k is None else max_k + 1
        return length, cap

    def _empty_batch(
        self, roots: list[int], k: int | None, max_k: int | None
    ) -> RootBatchResult:
        """A zeroed result over ``roots`` for the root loop to fill."""
        return RootBatchResult(
            roots=roots,
            count=0,
            all_counts=(
                None if k is not None else [0] * self._allk_shape(max_k)[0]
            ),
            counters=Counters(),
            per_root_work=[],
            per_root_memory=[],
        )

    def _descriptor(self, k: int | None, max_k: int | None) -> dict:
        """Checkpoint identity: resuming against anything else fails."""
        return {
            "engine": "sct",
            "k": k,
            "max_k": max_k,
            "structure": self.structure.name,
            "kernel": self.kernel.name,
            "graph_fingerprint": graph_fingerprint(self.graph),
            "dag_fingerprint": graph_fingerprint(self.dag),
        }

    def _span_attrs(self, k: int | None, max_k: int | None) -> dict:
        """Trace attributes for one run span (fingerprint only computed
        when a tracer will actually record it)."""
        attrs = {
            "engine": "sct",
            "structure": self.structure.name,
            "kernel": self.kernel.name,
        }
        if k is not None:
            attrs["k"] = k
        if max_k is not None:
            attrs["max_k"] = max_k
        if obs.get_tracer().enabled:
            attrs["graph"] = graph_fingerprint(self.graph)
        return attrs

    def _prune_mask(
        self, roots: np.ndarray, k: int | None, early_termination: bool
    ) -> np.ndarray:
        """Roots the degree prune skips: a non-empty out-neighborhood
        too small to hold a k-clique with its root."""
        if k is None or k < 2 or not early_termination:
            return np.zeros(roots.size, dtype=bool)
        d = self.structure.dag.degrees[roots]
        return (d > 0) & (d < k - 1)

    def _run(
        self,
        k: int | None,
        max_k: int | None = None,
        early_termination: bool = True,
        controller: RunController | None = None,
    ) -> CountResult:
        ctl = controller
        n = self.graph.num_vertices
        res = self._empty_batch(list(range(n)), k, max_k)
        # A resumed run's finished roots: their vectors stay out of the
        # loop's, which cover res.roots only.
        start = 0
        prior_work: list[float] = []
        prior_memory: list[float] = []

        if ctl is not None:
            # Zero-argument state provider: invoked only at actual save
            # points, always at a root boundary (roots fold atomically,
            # so the snapshot is consistent by construction).
            def snapshot() -> dict:
                return {
                    "next_root": start + len(res.per_root_work),
                    "total": res.count,
                    "all_counts": (
                        None if res.all_counts is None
                        else list(res.all_counts)
                    ),
                    "counters": res.counters.as_dict(),
                    "per_root_work": prior_work + res.per_root_work,
                    "per_root_memory": prior_memory + res.per_root_memory,
                }

            state = ctl.begin(self._descriptor(k, max_k), snapshot)
            if state is not None:
                if res.all_counts is not None:
                    stored = state.get("all_counts")
                    if stored is None or len(stored) != len(res.all_counts):
                        raise CheckpointError(
                            "checkpoint all_counts row does not match "
                            "this run's clique-size cap"
                        )
                    res.all_counts = [int(c) for c in stored]
                start = int(state["next_root"])
                prior_work = list(state["per_root_work"])
                prior_memory = list(state["per_root_memory"])
                res.roots = list(range(start, n))
                res.count = state["total"]
                res.counters = Counters.from_dict(state["counters"])

        span = obs.span(
            "sct.count" if k is not None else "sct.count_all",
            **self._span_attrs(k, max_k),
        )
        try:
            self._fold_roots(
                res, k, max_k, early_termination, ctl, span,
                guard=ctl is not None,
            )
        except BudgetExceededError as exc:
            # Roots fold in order, so the finished ones are a prefix.
            record = res.record()
            record["per_root_work"] = prior_work + res.per_root_work
            record["per_root_memory"] = prior_memory + res.per_root_memory
            exc.partial = PartialCounts(n, k)
            exc.partial.fold(
                slice(0, len(record["per_root_work"])), record
            )
            raise

        all_counts = res.all_counts
        if all_counts is not None:
            while len(all_counts) > 1 and all_counts[-1] == 0:
                all_counts.pop()
        return CountResult(
            count=None if k is None else res.count,
            all_counts=all_counts,
            k=k,
            counters=res.counters,
            per_root_work=np.array(
                prior_work + res.per_root_work, dtype=np.float64
            ),
            per_root_memory=np.array(
                prior_memory + res.per_root_memory, dtype=np.float64
            ),
            structure=self.structure.name,
            kernel=self.kernel.name,
        )

    def _fold_roots(
        self,
        res: RootBatchResult,
        k: int | None,
        max_k: int | None,
        early_termination: bool,
        ctl: RunController | None,
        span,
        guard: bool = False,
    ) -> None:
        """Count each of ``res.roots`` in order through
        :func:`~repro.counting.roots.run_roots` and fold it into
        ``res``: its count (or row) and counters into the running
        totals, which a resumed run seeds, and its work and memory onto
        the per-root lists.

        A root too small for a k-clique is charged unbuilt
        (:meth:`_charge_pruned`).  Block roots are memoized by their
        packed rows for this call only: a repeat folds the first
        occurrence's :class:`_RootTally` with its own ``build_words``,
        the same float additions in the same order as counting it
        again, so results are bit-identical.
        """
        length, cap = self._allk_shape(max_k) if k is None else (0, 0)
        build_words = self.structure.model_vectors()[0].tolist()
        calls = obs.kernel_tally()
        node_memo = [0, 0]

        def visit(v: int, ctx) -> _RootTally:
            ctr = Counters()
            if ctx is None:
                self._charge_pruned(v, ctr)
                return _RootTally.of(0, ctr)
            acc = [0] * _ACC_SLOTS
            if k is None:
                result = self._count_ctx_all(ctx, cap, length, ctr, acc)
            else:
                result = self._count_ctx_k(
                    ctx, k, ctr, early_termination, acc
                )
            if calls is not None:
                kernels.tally(
                    calls, ctr, 1, ctx.d > 0, acc[7], acc[8], acc[9]
                )
                node_memo[0] += acc[9]
                node_memo[1] += acc[10]
            return _RootTally.of(result, ctr)

        totals = res.counters
        all_counts = res.all_counts
        work = res.per_root_work
        memory = res.per_root_memory

        def fold(v: int, tally: _RootTally) -> None:
            (nodes, mem, result, leaves, early, set_ops, lookups,
             depth) = tally
            if k is None:
                for s in range(length):
                    if result[s]:
                        all_counts[s] += result[s]
            else:
                res.count += result
            bw = build_words[v]
            work.append(set_ops + lookups + bw)
            memory.append(float(mem))
            # Counters.merge of the root's own counters, inline so that
            # a hit needs no Counters object.
            t = totals
            t.function_calls += nodes
            t.leaves += leaves
            t.set_op_words += set_ops
            t.index_lookups += lookups
            t.subgraph_builds += 1
            t.build_words += bw
            t.early_terminations += early
            if depth > t.max_depth:
                t.max_depth = depth
            if mem > t.peak_subgraph_bytes:
                t.peak_subgraph_bytes = mem

        with span, obs.phase("counting"):
            run_roots(
                self.structure, res.roots, visit, fold, totals, engine="sct",
                controller=ctl, guard=guard, calls=calls,
                skip=partial(self._prune_mask, k=k,
                             early_termination=early_termination),
                memo={}, memo_max=_MEMO_MAX, node_memo=node_memo,
            )

    # ------------------------------------------------------------------
    # per-root recursions
    # ------------------------------------------------------------------
    def _count_root_k(
        self, v: int, k: int, ctr: Counters, early_termination: bool = True
    ) -> int:
        if early_termination and 0 < self.structure.dag.degree(v) < k - 1:
            self._charge_pruned(v, ctr)
            return 0
        return self._count_ctx_k(
            self.structure.build(v), k, ctr, early_termination
        )

    def _charge_pruned(self, v: int, ctr: Counters) -> None:
        """Degree-based candidate pruning (Lonkar & Beamer): a root
        whose out-degree already caps the largest possible clique below
        k is never built, but is charged *exactly* the counters the
        built-and-immediately-terminated root would have produced, so
        work totals stay path-invariant."""
        _, est_words, est_bytes = self.structure.estimate(v)
        ctr.subgraph_builds += 1
        ctr.build_words += est_words
        ctr.peak_subgraph_bytes = max(ctr.peak_subgraph_bytes, est_bytes)
        ctr.function_calls += 1
        ctr.early_terminations += 1

    def _count_ctx_k(
        self, ctx, k: int, ctr: Counters, early_termination: bool = True,
        acc: list | None = None,
    ) -> int:
        # Hot-path counters accumulate in a plain list (fast item ops)
        # and fold into the dataclass once per root (see
        # Counters.charge_root for the slots).  Work is charged
        # *edge-granularly* (one unit per adjacency entry a set
        # operation touches), the cost the paper's array-based
        # implementation actually pays — this is what makes counting
        # work sensitive to the ordering's subgraph sizes (Table II /
        # Table III).  A caller that passes ``acc`` reads the subtree
        # memo's slots back from it.
        if acc is None:
            acc = [0] * _ACC_SLOTS
        rec = self._make_rec_k(ctx, k, acc, early_termination)
        result = rec((1 << ctx.d) - 1, ctx.d, 1, 0)
        ctr.charge_root(ctx, acc)
        return result

    def _make_rec_k(self, ctx, k: int, acc: list, early_termination: bool):
        """The target-k recursion, built as a closure over one root's
        context: the per-node big-int-mask walk that charges ``acc``
        and returns the root's k-clique count.

        The closure keeps a subtree memo for its one root.  Below a
        node, the subtree — its count and every ``acc`` charge — is
        fixed by ``(P, held, pivots)``, since the root fixes the rows,
        ``k`` and ``early_termination``.  A node other than the root
        call that has at least :data:`_NODE_MEMO_MIN_PC` candidates and
        no perfect pivot looks that key up after its pivot scan.  A hit
        adds the stored deltas of slots 0-4 and 6 and returns the stored
        count without walking the subtree; slot 5 (max depth) was raised
        by the walk that stored them.  It also charges the memo's own
        slots: 7 the subtree's nodes below the hit, 8 their leaves and
        early exits, 9 one hit.  A lookup that misses charges slot 10.
        The memo keeps at most :data:`_MEMO_MAX` entries.
        """
        rows = ctx.rows
        pivot_select = kernels.pivot_select
        binom = binomial
        memo = None  # allocated at the first memoizable node

        def rec(P: int, pc: int, held: int, pivots: int) -> int:
            nonlocal memo
            acc[0] += 1
            if held == k:
                # Exactly one k-clique remains below: the held set.
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                return 1
            if pc == 0:
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                return binom(pivots, k - held)
            if early_termination and held + pivots + pc < k:
                acc[2] += 1
                return 0
            # Pivot selection: one fused scan over the candidates' rows.
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            if (pc >= _NODE_MEMO_MIN_PC and held + pivots > 1
                    and best_cnt < pc - 1):
                key = (P, held, pivots)
                if memo is None:
                    memo = {}
                else:
                    hit = memo.get(key)
                    if hit is not None:
                        total, d0, d1, d2, d3, d4, d6 = hit
                        acc[0] += d0
                        acc[1] += d1
                        acc[2] += d2
                        acc[3] += d3
                        acc[4] += d4
                        acc[6] += d6
                        acc[7] += d0
                        acc[8] += d1 + d2
                        acc[9] += 1
                        return total
                acc[10] += 1
                a0, a1, a2, a3, a4, a6 = (
                    acc[0], acc[1], acc[2], acc[3], acc[4], acc[6]
                )
                # The walk below, written out again so that a node the
                # memo does not look up pays only the test above.
                total = rec(best_row, best_cnt, held, pivots + 1)
                P &= ~(1 << best)
                cand = P & ~best_row
                acc[4] += cand.bit_count()
                held1 = held + 1
                while cand:
                    low = cand & -cand
                    child = rows[low.bit_length() - 1] & P
                    cc = child.bit_count()
                    edge_sum += cc
                    total += rec(child, cc, held1, pivots)
                    P ^= low
                    cand ^= low
                acc[6] += edge_sum
                if len(memo) < _MEMO_MAX:
                    memo[key] = (
                        total, acc[0] - a0, acc[1] - a1, acc[2] - a2,
                        acc[3] - a3, acc[4] - a4, acc[6] - a6,
                    )
                return total
            total = rec(best_row, best_cnt, held, pivots + 1)
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                child = rows[low.bit_length() - 1] & P
                cc = child.bit_count()
                edge_sum += cc
                total += rec(child, cc, held1, pivots)
                P ^= low
                cand ^= low
            acc[6] += edge_sum
            return total

        return rec

    def _count_ctx_all(
        self, ctx, cap: int, length: int, ctr: Counters,
        acc: list | None = None,
    ) -> list[int]:
        """Per-size counts for one root, as a fresh ``length``-long row.

        Writing into a local row (folded by the caller *after* budget
        checks pass) keeps the shared distribution consistent if the
        controller aborts the run on this root.
        """
        counts = [0] * length
        if acc is None:
            acc = [0] * _ACC_SLOTS
        rec = self._make_rec_all(ctx, cap, counts, acc)
        rec((1 << ctx.d) - 1, ctx.d, 1, 0)
        ctr.charge_root(ctx, acc)
        return counts

    def _make_rec_all(self, ctx, cap: int, counts: list, acc: list):
        """The all-k recursion closure: the target-k tree without the
        reach prune, adding a binomial row per leaf into ``counts``.

        Its subtree memo is :meth:`_make_rec_k`'s, with ``cap`` in the
        place of ``k``.  A subtree's result is the part of ``counts`` it
        adds, stored only over ``[held, min(held + pivots + pc + 1,
        cap))``: a leaf below the node holds at least ``held`` vertices
        and at most ``held + pivots + pc``, so none lands outside.
        """
        rows = ctx.rows
        pivot_select = kernels.pivot_select
        memo = None  # allocated at the first memoizable node

        def rec(P: int, pc: int, held: int, pivots: int) -> None:
            nonlocal memo
            acc[0] += 1
            if held >= cap:
                acc[2] += 1
                return
            if pc == 0:
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                brow = binomial_row(pivots)
                hi = min(held + pivots + 1, cap)
                for s in range(held, hi):
                    counts[s] += brow[s - held]
                return
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            if (pc >= _NODE_MEMO_MIN_PC and held + pivots > 1
                    and best_cnt < pc - 1):
                key = (P, held, pivots)
                if memo is None:
                    memo = {}
                else:
                    hit = memo.get(key)
                    if hit is not None:
                        seg, d0, d1, d2, d3, d4, d6 = hit
                        for s, c in enumerate(seg, held):
                            counts[s] += c
                        acc[0] += d0
                        acc[1] += d1
                        acc[2] += d2
                        acc[3] += d3
                        acc[4] += d4
                        acc[6] += d6
                        acc[7] += d0
                        acc[8] += d1 + d2
                        acc[9] += 1
                        return
                acc[10] += 1
                hi = min(held + pivots + pc + 1, cap)
                before = counts[held:hi]
                a0, a1, a2, a3, a4, a6 = (
                    acc[0], acc[1], acc[2], acc[3], acc[4], acc[6]
                )
                # The walk below, written out again so that a node the
                # memo does not look up pays only the test above.
                rec(best_row, best_cnt, held, pivots + 1)
                P &= ~(1 << best)
                cand = P & ~best_row
                acc[4] += cand.bit_count()
                held1 = held + 1
                while cand:
                    low = cand & -cand
                    child = rows[low.bit_length() - 1] & P
                    cc = child.bit_count()
                    edge_sum += cc
                    rec(child, cc, held1, pivots)
                    P ^= low
                    cand ^= low
                acc[6] += edge_sum
                if len(memo) < _MEMO_MAX:
                    memo[key] = (
                        [a - b for a, b in zip(counts[held:hi], before)],
                        acc[0] - a0, acc[1] - a1, acc[2] - a2,
                        acc[3] - a3, acc[4] - a4, acc[6] - a6,
                    )
                return
            rec(best_row, best_cnt, held, pivots + 1)
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                child = rows[low.bit_length() - 1] & P
                cc = child.bit_count()
                edge_sum += cc
                rec(child, cc, held1, pivots)
                P ^= low
                cand ^= low
            acc[6] += edge_sum

        return rec


# ----------------------------------------------------------------------
# convenience wrappers
# ----------------------------------------------------------------------
def count_kcliques(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    kernel: str | None = None,
    controller: "RunController | None" = None,
) -> CountResult:
    """Count k-cliques of ``graph`` under ``ordering`` — one-shot API."""
    return SCTEngine(graph, ordering, structure, kernel=kernel).count(
        k, controller=controller
    )


def count_all_sizes(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    max_k: int | None = None,
    kernel: str | None = None,
    controller: "RunController | None" = None,
) -> CountResult:
    """Count cliques of every size (Fig. 1's distribution) — one-shot."""
    return SCTEngine(graph, ordering, structure, kernel=kernel).count_all(
        max_k=max_k, controller=controller
    )
