"""Per-edge k-clique counts.

The natural companion to the per-vertex extension: for every edge
``(u, v)``, the number of k-cliques containing both endpoints.  Used in
dense-subgraph discovery and k-clique-densest-subgraph peeling (the
paper's community-detection motivation).

Attribution mirrors :mod:`repro.counting.pervertex` — a leaf sink on
the shared leaf walker's target-k tree
(:func:`repro.counting.forest.walk_root`): at an SCT leaf with held set
``H`` and pivot set ``Π`` contributing ``C(|Π|, j)`` k-cliques
(``j = k - |H|``):

* a held-held pair appears in every one of them: ``C(|Π|, j)``;
* a held-pivot pair (pivot chosen): ``C(|Π| - 1, j - 1)``;
* a pivot-pivot pair (both chosen): ``C(|Π| - 2, j - 2)``.

Invariant (tested): summing over all edges gives
``C(k, 2) x (total k-cliques)``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro import kernels
from repro.counting.binomial import binomial
from repro.counting.forest import attribution_structure, walk_roots
from repro.errors import CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.runtime.controller import RunController

__all__ = ["per_edge_counts"]


def per_edge_counts(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    kernel: str | None = None,
    controller: RunController | None = None,
    forest=None,
) -> dict[tuple[int, int], int]:
    """k-clique count per edge, keyed by ``(min(u,v), max(u,v))``.

    Only edges participating in at least one k-clique appear (other
    edges implicitly count 0).  ``k >= 2``; for ``k == 2`` every edge
    maps to 1.

    ``forest`` may be a pre-built
    :class:`~repro.counting.forest.SCTForest` of this graph; the query
    is then answered from its materialized leaves without re-recursing.
    """
    if k < 2:
        raise CountingError(f"per-edge counts need k >= 2, got {k}")
    kernels.kernel_name(kernel)
    if forest is not None:
        return forest.per_edge(k)
    struct = attribution_structure(graph, ordering, structure)
    per: dict[tuple[int, int], int] = {}

    def credit(u: int, v: int, c: int) -> None:
        key = (u, v) if u < v else (v, u)
        per[key] = per.get(key, 0) + c

    def leaf(held, pivots, held_ids, pivot_ids):
        j = k - held
        c_all = binomial(pivots, j)
        if c_all == 0:
            return
        c_hp = binomial(pivots - 1, j - 1)
        c_pp = binomial(pivots - 2, j - 2)
        for a, b in combinations(held_ids, 2):
            credit(a, b, c_all)
        if c_hp:
            for h in held_ids:
                for p in pivot_ids:
                    credit(h, p, c_hp)
        if c_pp:
            for a, b in combinations(pivot_ids, 2):
                credit(a, b, c_pp)

    walk_roots(struct, range(graph.num_vertices), leaf, k=k,
               controller=controller, engine="per-edge")
    return per
