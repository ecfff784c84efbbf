"""Sparse subgraph structure — hash-indexed (Fig. 4B).

Only the (at most ``d``) vertices with non-zero subgraph degree are
indexed, via a hash map from global id to row.  The footprint shrinks
from ``O(|V|)`` to ``O(max out-degree)`` — often cache-resident — at
the price of a hash lookup per access, which the paper measures at
~1.2x a direct array load.  "For large graphs like Friendster, this
optimization is able to overcome the scaling plateau from 32 threads to
64 threads" (Sec. IV).
"""

from __future__ import annotations

from repro.counting.structures.base import SubgraphStructure

__all__ = ["SparseStructure"]

# Modeled bytes per hash-map entry: key + value + bucket overhead.
_HASH_ENTRY_BYTES = 48


class SparseStructure(SubgraphStructure):
    """Hash-map-indexed subgraph (PivotScale (sparse))."""

    name = "sparse"
    lookup_weight = 1.2

    def memory_bytes(self, d: int) -> int:
        return _HASH_ENTRY_BYTES * d + self.bitset_bytes(d)

    def _row_accessor(self, out, rows):
        # hash map: global id -> local row index.
        out_list = out.tolist()
        table = {g: i for i, g in enumerate(out_list)}

        def row(i: int, _table=table, _out=out_list, _rows=rows) -> int:
            return _rows[_table[_out[i]]]

        return row
