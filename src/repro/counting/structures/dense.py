"""Dense subgraph structure — original Pivoter's layout (Fig. 4A).

The index is an array of size ``|V|`` mapping a *global* vertex id to
its adjacency row.  Access is a direct array load (weight 1.0), but the
index alone costs ``8 |V|`` bytes per thread: with 64 threads on a
large graph "these indices alone will consume more memory than the
original graph" (paper Sec. IV) — the cause of the 32-thread scaling
plateau the compact structures fix.

The slot array is allocated once and reused across roots (only the
touched entries are reset), mirroring the paper's allocation-reuse
discipline.  The reset happens *before* any new state is written and
``_touched`` is only reassigned once the new root's rows exist, so an
exception mid-build (e.g. out of memory during induction) leaves the
slot array clean — no stale adjacency can leak into the next root.
"""

from __future__ import annotations

from repro.counting.structures.base import SubgraphStructure

__all__ = ["DenseStructure"]


class DenseStructure(SubgraphStructure):
    """|V|-sized direct-index subgraph (PivotScale (dense))."""

    name = "dense"
    lookup_weight = 1.0

    def __init__(self, graph, dag):  # noqa: D107 - see base class
        super().__init__(graph, dag)
        # slot value = local row index + 1; 0 = empty.
        self._slots: list[int] = [0] * graph.num_vertices
        self._touched: list[int] = []

    def memory_bytes(self, d: int) -> int:
        return 8 * self.graph.num_vertices + self.bitset_bytes(d)

    def _reset(self) -> None:
        # Reset only previously used slots (cheap reuse, not realloc).
        for gid in self._touched:
            self._slots[gid] = 0
        self._touched = []

    def _row_accessor(self, out, rows):
        self._reset()
        touched = out.tolist()
        slots = self._slots
        for pos, gid in enumerate(touched):
            slots[gid] = pos + 1
        self._touched = touched

        def row(i: int, _slots=slots, _out=touched, _rows=rows) -> int:
            return _rows[_slots[_out[i]] - 1]

        return row
