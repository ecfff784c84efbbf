"""Per-vertex clique *profiles*: counts of every clique size at once.

Generalizes :mod:`repro.counting.pervertex` the way
:meth:`SCTEngine.count_all` generalizes single-k counting: one SCT pass
yields, for every vertex, its participation count in cliques of every
size — the local clique profile used in graph mining as a structural
feature vector (and by the k-clique peeling in
:mod:`repro.apps.cliquecore`).  The pass is the shared leaf walker
(:func:`repro.counting.forest.walk_root`) cut at the size cap; this
module is the leaf sink.

Leaf rule: at a leaf with held set ``H`` and pivot set ``Π``, for each
size ``s = |H| + j``:

* each held vertex joins ``C(|Π|, j)`` s-cliques,
* each pivot vertex joins ``C(|Π|-1, j-1)`` s-cliques.

Row-level invariant (tested): summing profile column ``s`` over all
vertices gives ``s x (number of s-cliques)``.
"""

from __future__ import annotations

import numpy as np

from repro.counting.binomial import binomial_row
from repro.counting.forest import attribution_structure, walk_roots
from repro.errors import CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering

__all__ = ["per_vertex_profiles"]


def per_vertex_profiles(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    max_k: int | None = None,
    forest=None,
) -> list[list[int]]:
    """``result[v][s]`` = number of s-cliques containing vertex ``v``.

    All rows share the same length (the graph's max clique size + 1, or
    ``max_k + 1`` when truncated); entries are exact ints.

    ``forest`` may be a pre-built
    :class:`~repro.counting.forest.SCTForest` of this graph; all
    profile columns are then folded from its materialized leaves.
    """
    if graph.directed:
        raise CountingError("input graph must be undirected")
    if forest is not None:
        return forest.profiles(max_k)
    struct = attribution_structure(graph, ordering, structure)
    n = graph.num_vertices
    cap = struct.dag.max_degree + 2
    if max_k is not None:
        if max_k < 1:
            raise CountingError("max_k must be >= 1")
        cap = min(cap, max_k + 1)
    profiles: list[list[int]] = [[0] * cap for _ in range(n)]

    def leaf(held, pivots, held_ids, pivot_ids):
        brow = binomial_row(pivots)
        hi = min(held + pivots + 1, cap)
        for s in range(held, hi):
            c = brow[s - held]
            for u in held_ids:
                profiles[u][s] += c
        if pivots:
            brow1 = binomial_row(pivots - 1)
            for s in range(held + 1, hi):
                c_in = brow1[s - held - 1]
                for u in pivot_ids:
                    profiles[u][s] += c_in

    walk_roots(struct, range(n), leaf, cap=cap, engine="profiles")
    # Trim trailing all-zero columns (keep at least sizes 0..1).
    top = 1
    for v in range(n):
        row = profiles[v]
        for s in range(cap - 1, top, -1):
            if row[s]:
                top = max(top, s)
                break
    width = top + 1
    return [row[:width] for row in profiles]
