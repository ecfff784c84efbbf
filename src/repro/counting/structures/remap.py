"""Remapped subgraph structure — PivotScale's default (Fig. 4C).

Global vertex ids are remapped to the compact range ``[0, d(v))`` once,
when the first-level subgraph is built; all deeper recursion levels
reuse the local ids.  The index becomes a ``d``-sized direct array:
dense-structure access speed with sparse-structure memory.  The hash
cost is paid "only once rather than for every graph operation"
(Sec. V-B) — we charge that one remap pass in ``build_words``.
"""

from __future__ import annotations

from repro.counting.structures.base import SubgraphStructure

__all__ = ["RemapStructure"]


class RemapStructure(SubgraphStructure):
    """First-level-remapped subgraph (PivotScale (remap))."""

    name = "remap"
    lookup_weight = 1.0
    # The one-time remap pass: one (modeled) hash insertion per member;
    # afterwards rows are indexed by local id directly.
    member_words = 1.2

    def memory_bytes(self, d: int) -> int:
        return 8 * d + self.bitset_bytes(d)

    def _row_accessor(self, out, rows):
        return rows.__getitem__
