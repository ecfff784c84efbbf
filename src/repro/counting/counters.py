"""Counting-phase instrumentation.

These counters are the bridge between the real Python execution and the
simulated 64-core machine: the recursion increments them with exact
algorithmic quantities (tree nodes, set-intersection words, index
lookups), and :mod:`repro.perfmodel` converts them into modeled
instructions, MPKI, IPC and seconds (Tables II/III/V, Figs. 6-13).

They correspond to what the paper measures with hardware performance
counters — but here they are *exact by construction* rather than
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Counters"]


@dataclass
class Counters:
    """Work counters for one counting run (or one root-vertex task).

    Attributes
    ----------
    function_calls:
        SCT/enumeration recursion nodes (the paper's "recursive function
        calls", Table II).
    leaves:
        SCT leaves reached (maximal-clique encodings).
    set_op_words:
        Machine words touched by bitset AND/popcount operations — the
        instruction-count proxy.  One unit = one 64-bit word of one
        bitset operation.
    index_lookups:
        Subgraph-index accesses, *weighted* by the structure's lookup
        cost (dense array = 1.0, hash = 1.2; paper Sec. IV).
    subgraph_builds:
        First-level subgraph inductions (one per root vertex).
    build_words:
        Words of work spent building first-level subgraphs (neighbor
        intersection + remap).
    early_terminations:
        Nodes pruned by the Sec. V-A early-exit conditions.
    max_depth:
        Deepest recursion observed (bounded by the largest clique).
    peak_subgraph_bytes:
        Largest per-thread subgraph footprint (drives the cache model).
    """

    function_calls: int = 0
    leaves: int = 0
    set_op_words: float = 0.0
    index_lookups: float = 0.0
    subgraph_builds: int = 0
    build_words: float = 0.0
    early_terminations: int = 0
    max_depth: int = 0
    peak_subgraph_bytes: int = 0

    def merge(self, other: "Counters") -> None:
        """Accumulate another counter set into this one (task -> run)."""
        self.function_calls += other.function_calls
        self.leaves += other.leaves
        self.set_op_words += other.set_op_words
        self.index_lookups += other.index_lookups
        self.subgraph_builds += other.subgraph_builds
        self.build_words += other.build_words
        self.early_terminations += other.early_terminations
        self.max_depth = max(self.max_depth, other.max_depth)
        self.peak_subgraph_bytes = max(
            self.peak_subgraph_bytes, other.peak_subgraph_bytes
        )

    def charge_root(self, ctx, acc: list) -> None:
        """Fold one built root into these counters: its induction
        charges from ``ctx`` (a
        :class:`~repro.counting.structures.base.RootContext`) and the
        tally ``acc`` its pivot walk kept in a plain list — ``[nodes,
        leaves, early exits, scanned candidates, branch vertices,
        max depth, edge work]``."""
        self.subgraph_builds += 1
        self.build_words += ctx.build_words
        self.peak_subgraph_bytes = max(
            self.peak_subgraph_bytes, ctx.memory_bytes
        )
        self.function_calls += acc[0]
        self.leaves += acc[1]
        self.early_terminations += acc[2]
        self.index_lookups += (acc[3] + acc[4]) * ctx.lookup_weight
        self.set_op_words += acc[6] + acc[3] + acc[4]
        self.max_depth = max(self.max_depth, acc[5])

    @property
    def recursion_work(self) -> float:
        """The recursion's share of :attr:`work` (set ops + lookups):
        a function of the root's induced subgraph alone."""
        return self.set_op_words + self.index_lookups

    @property
    def work(self) -> float:
        """Scalar work units for scheduling: the instruction proxy,
        exactly ``recursion_work + build_words`` (same additions, same
        order; spelled out because engines read it once per root)."""
        return self.set_op_words + self.index_lookups + self.build_words

    def publish(self, **labels) -> None:
        """Fold this counter set into the process metrics registry.

        The field → metric-name mapping lives in
        :data:`repro.obs.registry.COUNTER_METRICS`; the engines call
        this (via :func:`repro.obs.record_run`) once per run, so the
        hot recursion keeps accumulating into plain fields and the
        registry is the one vocabulary every consumer reads.
        """
        from repro import obs

        obs.record_counters(self, **labels)

    @classmethod
    def from_dict(cls, d: dict) -> "Counters":
        """Exact inverse of :meth:`as_dict` (ignores derived keys) —
        the checkpoint restore path.  Ints stay ints and floats
        round-trip exactly through JSON, so a resumed run's counters
        are bit-identical to an uninterrupted one."""
        return cls(
            function_calls=int(d.get("function_calls", 0)),
            leaves=int(d.get("leaves", 0)),
            set_op_words=float(d.get("set_op_words", 0.0)),
            index_lookups=float(d.get("index_lookups", 0.0)),
            subgraph_builds=int(d.get("subgraph_builds", 0)),
            build_words=float(d.get("build_words", 0.0)),
            early_terminations=int(d.get("early_terminations", 0)),
            max_depth=int(d.get("max_depth", 0)),
            peak_subgraph_bytes=int(d.get("peak_subgraph_bytes", 0)),
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for report tables."""
        return {
            "function_calls": self.function_calls,
            "leaves": self.leaves,
            "set_op_words": self.set_op_words,
            "index_lookups": self.index_lookups,
            "subgraph_builds": self.subgraph_builds,
            "build_words": self.build_words,
            "early_terminations": self.early_terminations,
            "max_depth": self.max_depth,
            "peak_subgraph_bytes": self.peak_subgraph_bytes,
            "work": self.work,
        }
