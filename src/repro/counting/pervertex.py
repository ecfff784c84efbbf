"""Per-vertex k-clique counts — the paper's Sec. VIII extension.

"Simple changes to our code could easily enable per-vertex k-clique
counts": at each SCT leaf with held set ``H`` and pivot set ``Π``, the
leaf's ``C(|Π|, k - |H|)`` k-cliques all contain every held vertex, and
a pivot vertex ``u ∈ Π`` appears in exactly ``C(|Π| - 1, k - |H| - 1)``
of them.  The shared leaf walker (:func:`repro.counting.forest.walk_root`)
walks the target-k tree with the member ids of each leaf, so this
module is only that rule, applied as a leaf sink.

Invariant (tested): per-vertex counts sum to ``k x (total k-cliques)``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.counting.binomial import binomial
from repro.counting.counters import Counters
from repro.counting.forest import attribution_structure, walk_root, walk_roots
from repro.errors import CountingError
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.runtime.controller import RunController

__all__ = ["per_vertex_counts", "attribute_root", "vertex_sink"]


def per_vertex_counts(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    kernel: str | None = None,
    controller: RunController | None = None,
    forest=None,
) -> list[int]:
    """Number of k-cliques containing each vertex (exact ints).

    A ``controller`` is consulted at root granularity for budgets and
    fault injection (attribution has no checkpoint state — a budget
    abort discards the run).

    ``forest`` may be a pre-built
    :class:`~repro.counting.forest.SCTForest` of this graph: the query
    is then served from its materialized leaves (identical counts, no
    re-recursion) — the fast path when several queries share one graph.
    """
    if k < 1:
        raise CountingError(f"clique size k must be >= 1, got {k}")
    kernels.kernel_name(kernel)
    if forest is not None:
        return forest.per_vertex(k)
    struct = attribution_structure(graph, ordering, structure)
    n = graph.num_vertices
    per: list[int] = [0] * n
    walk_roots(struct, range(n), vertex_sink(per, k), k=k,
               controller=controller, engine="per-vertex")
    return per


def attribute_root(
    struct, v: int, k: int, per: list[int], ctr: Counters
) -> None:
    """Public per-root attribution step.  Adds root ``v``'s exact
    contribution to every entry of ``per`` it touches, charging ``ctr``
    exactly like the serial loop, so attributions of disjoint root sets
    folded in any order equal the serial result."""
    walk_root(struct.build(v), v, ctr, vertex_sink(per, k), k=k)


def vertex_sink(per: list[int], k: int):
    """The leaf sink adding each leaf's k-cliques to ``per``."""

    def leaf(held, pivots, held_ids, pivot_ids):
        j = k - held
        c = binomial(pivots, j)
        if c == 0:
            return
        for u in held_ids:
            per[u] += c
        c_in = binomial(pivots - 1, j - 1)
        if c_in:
            for u in pivot_ids:
                per[u] += c_in

    return leaf
