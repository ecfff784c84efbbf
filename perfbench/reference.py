"""Reference answers the benchmark checks the program against.

Both counters here use a different algorithm from the program's pivoting
recursion, so a shared bug cannot hide:

* :func:`count_kcliques` - plain clique *listing* (Chiba-Nishizeki
  style) over a degree-ordered DAG with Python-int bitsets, where the
  last level is counted by popcount instead of being listed.
* :class:`StreamCounter` - an incremental counter for an edge stream:
  each edit changes the count of 3- and 4-cliques by the triangles and
  edges inside the common neighbourhood of the edited pair.
"""

from __future__ import annotations

from math import comb

import numpy as np

from inputs import canonical_edges


def _out_lists(edges: np.ndarray, n: int) -> list[list[int]]:
    """Out-neighbour lists of the DAG that orients each edge from the
    lower (degree, id) end to the higher one."""
    e = canonical_edges(edges)
    deg = np.bincount(e.ravel(), minlength=n)
    key = deg.astype(np.int64) * n + np.arange(n)
    flip = key[e[:, 0]] > key[e[:, 1]]
    src = np.where(flip, e[:, 1], e[:, 0])
    dst = np.where(flip, e[:, 0], e[:, 1])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    bounds = np.searchsorted(src, np.arange(n + 1))
    dst = dst.tolist()
    return [dst[bounds[v]:bounds[v + 1]] for v in range(n)]


def count_kcliques(edges: np.ndarray, n: int, k: int) -> int:
    """Exact number of k-cliques (``k >= 3``) of the undirected graph."""
    if k < 3:
        raise ValueError("count_kcliques needs k >= 3")
    out = _out_lists(edges, n)
    out_sets = [set(o) for o in out]
    total = 0
    for v in range(n):
        members = out[v]
        d = len(members)
        if d < k - 1:
            continue
        local = {u: i for i, u in enumerate(members)}
        # rows[i]: bitset of members after member i in the DAG.
        rows = [0] * d
        for i, u in enumerate(members):
            row = 0
            for w in out_sets[u].intersection(local):
                row |= 1 << local[w]
            rows[i] = row
        total += _listing(rows, (1 << d) - 1, k - 1)
    return total


def _listing(rows: list[int], cand: int, need: int) -> int:
    """Cliques of ``need`` vertices inside ``cand``; ``rows`` hold DAG
    successors only, so each clique is listed once, in DAG order."""
    if need == 1:
        return cand.bit_count()
    total = 0
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        sub = cand & rows[low.bit_length() - 1]
        if need == 2:
            total += sub.bit_count()
        elif sub.bit_count() >= need - 1:
            total += _listing(rows, sub, need - 1)
    return total


class StreamCounter:
    """Exact vertex, edge, triangle and 4-clique counts of an evolving
    graph, maintained edit by edit from common neighbourhoods."""

    def __init__(self, edges: np.ndarray, n: int) -> None:
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in canonical_edges(edges).tolist():
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.counts = [1, n, sum(len(a) for a in self.adj) // 2,
                       count_kcliques(edges, n, 3),
                       count_kcliques(edges, n, 4)]

    def _common_cliques(self, u: int, v: int) -> tuple[int, int]:
        """(vertices, edges) inside N(u) & N(v): the triangles and
        4-cliques that contain the pair (u, v)."""
        common = self.adj[u] & self.adj[v]
        inner = sum(len(self.adj[w] & common) for w in common) // 2
        return len(common), inner

    def apply(self, batch) -> None:
        """Apply ``("+"|"-", u, v)`` records in order."""
        for op, u, v in batch:
            if op == "+":
                if v in self.adj[u]:
                    continue
                sign = 1
            else:
                if v not in self.adj[u]:
                    continue
                sign = -1
            tri, k4 = self._common_cliques(u, v)
            self.counts[2] += sign
            self.counts[3] += sign * tri
            self.counts[4] += sign * k4
            if sign > 0:
                self.adj[u].add(v)
                self.adj[v].add(u)
            else:
                self.adj[u].discard(v)
                self.adj[v].discard(u)


def attribution_sums(k: int, count: int) -> tuple[int, int]:
    """What per-vertex and per-edge k-clique counts must sum to."""
    return k * count, comb(k, 2) * count
