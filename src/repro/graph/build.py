"""Builders that turn raw edge data into a clean :class:`CSRGraph`.

All builders normalize input the same way the paper's evaluation does
(Sec. VI-A): graphs are unweighted, symmetrized to be undirected, with
self loops and duplicate edges removed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = [
    "from_edge_array",
    "from_edge_list",
    "from_adjacency",
    "induced_subgraph",
    "csr_from_sorted_edges",
]


def from_edge_array(
    edges: np.ndarray,
    num_vertices: int | None = None,
    *,
    symmetrize: bool = True,
) -> CSRGraph:
    """Build an undirected simple graph from an ``(m, 2)`` edge array.

    Self loops are dropped, duplicate edges (in either direction when
    ``symmetrize``) collapse to one undirected edge.

    Parameters
    ----------
    edges:
        Integer array of shape ``(m, 2)``.  May be empty.
    num_vertices:
        Vertex-set size; defaults to ``max id + 1``.
    symmetrize:
        Treat rows as undirected pairs (default, matches the paper).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(
            f"edge array must have shape (m, 2), got {edges.shape}"
        )
    if edges.size and edges.min() < 0:
        raise GraphFormatError("negative vertex id in edge array")
    n = int(edges.max()) + 1 if edges.size else 0
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than max id {n - 1}"
            )
        n = int(num_vertices)

    edges = edges[edges[:, 0] != edges[:, 1]]  # drop self loops
    if symmetrize:
        edges = np.concatenate((edges, edges[:, ::-1]), axis=0)
    if edges.size:
        keys = edges[:, 0] * n + edges[:, 1]
        keys = np.unique(keys)
        src = keys // n
        dst = keys % n
    else:
        src = dst = np.empty(0, dtype=np.int64)
    return csr_from_sorted_edges(src, dst, n, directed=not symmetrize)


def csr_from_sorted_edges(
    src: np.ndarray, dst: np.ndarray, n: int, *, directed: bool = False
) -> CSRGraph:
    """Assemble a CSR from deduplicated edge endpoints sorted by
    ``(src, dst)``.  Internal fast path used by the generators and by
    :func:`repro.counting.dynamic.edit_graph`'s splice."""
    counts = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst, directed=directed, validate=False)


def from_edge_list(
    pairs: Iterable[tuple[int, int]], num_vertices: int | None = None
) -> CSRGraph:
    """Build an undirected simple graph from an iterable of pairs."""
    arr = np.array(list(pairs), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    return from_edge_array(arr, num_vertices)


def from_adjacency(adj: Sequence[Iterable[int]]) -> CSRGraph:
    """Build an undirected simple graph from an adjacency sequence.

    ``adj[u]`` lists the neighbors of ``u``; missing reverse edges are
    added (symmetrization), so oracles can supply one direction only.
    """
    pairs: list[tuple[int, int]] = []
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            pairs.append((u, int(v)))
    return from_edge_list(pairs, num_vertices=len(adj))


def induced_subgraph(g: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Vertex-induced subgraph with vertices relabeled ``0..len-1`` in
    the order given.

    This is the *offline* induced-subgraph helper used by generators and
    tests; the counting phase uses its own per-root induction
    (:mod:`repro.counting.structures`) because that path is performance
    critical and instrumented.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size != np.unique(vertices).size:
        raise GraphFormatError("induced vertex set contains duplicates")
    remap = -np.ones(g.num_vertices, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    pairs: list[tuple[int, int]] = []
    for new_u, u in enumerate(vertices):
        for v in g.neighbors(int(u)):
            nv = remap[v]
            if nv >= 0:
                pairs.append((new_u, int(nv)))
    src_dst = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return from_edge_array(
        src_dst, num_vertices=vertices.size, symmetrize=not g.directed
    )
