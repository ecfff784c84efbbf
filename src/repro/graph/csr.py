"""Compressed-sparse-row graph storage.

:class:`CSRGraph` is the single topology container used throughout the
library.  It is immutable after construction: every ordering and counting
routine works on read-only NumPy views, which keeps the hot kernels
allocation-free (the paper's Sec. V-B stresses allocation avoidance; in
NumPy the equivalent discipline is "views, not copies").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable graph in compressed-sparse-row form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``u``'s neighbors live in
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        Neighbor array.  Each row must be strictly increasing (sorted,
        no duplicates) and contain no self loops.
    directed:
        ``False`` for an undirected (symmetric) graph storing both edge
        directions, ``True`` for a DAG storing out-neighbors only.
    validate:
        When ``True`` (default) the invariants above are checked; builders
        that construct rows correctly by construction pass ``False``.
    """

    __slots__ = ("indptr", "indices", "directed", "_degrees", "_fp")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        directed: bool = False,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphFormatError("indptr must have length n + 1 >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphFormatError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.size} entries)"
            )
        self.indptr = indptr
        self.indices = indices
        self.directed = bool(directed)
        self._degrees = np.diff(indptr)
        if validate:
            self._validate()
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._degrees.setflags(write=False)
        self._fp: str | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_vertices
        if np.any(self._degrees < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise GraphFormatError("neighbor id out of range [0, n)")
        # Rows must be strictly increasing: sorted, deduplicated.
        for u in range(n):
            row = self.indices[self.indptr[u] : self.indptr[u + 1]]
            if row.size:
                if np.any(np.diff(row) <= 0):
                    raise GraphFormatError(
                        f"row {u} is not strictly increasing (unsorted or "
                        "duplicate neighbors)"
                    )
                lo = np.searchsorted(row, u)
                if lo < row.size and row[lo] == u:
                    raise GraphFormatError(f"self loop at vertex {u}")
        if not self.directed:
            # Symmetry: every (u, v) needs the reverse (v, u).
            src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
            fwd = src * n + self.indices
            rev = self.indices * n + src
            if not np.array_equal(np.sort(fwd), np.sort(rev)):
                raise GraphFormatError("undirected graph is not symmetric")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of edges: undirected edges for symmetric graphs,
        directed edges for DAGs."""
        if self.directed:
            return int(self.indices.size)
        return int(self.indices.size) // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree (out-degree for DAGs); read-only view."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum (out-)degree, 0 for the empty graph."""
        return int(self._degrees.max()) if self.num_vertices else 0

    @property
    def average_degree(self) -> float:
        """Average degree ``2|E|/|V|`` (``|E|/|V|`` for DAGs)."""
        if self.num_vertices == 0:
            return 0.0
        return self.indices.size / self.num_vertices

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _compute_fp(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.indptr).tobytes())
        h.update(np.ascontiguousarray(self.indices).tobytes())
        h.update(b"directed" if self.directed else b"undirected")
        return h.hexdigest()[:16]

    def fingerprint(self) -> str:
        """Stable structural identity (the checkpoint / forest-cache
        fingerprint — see :func:`repro.runtime.progress.graph_fingerprint`).

        Memoized: the arrays are write-locked at construction, so the
        digest cannot go stale.  If someone force-unlocks and mutates
        the arrays anyway (``setflags(write=True)``), the memo is
        dropped and recomputed per call — a mutated graph can never be
        served a cached fingerprint (guarded by
        ``tests/test_dynamic.py``).
        """
        if self.indptr.flags.writeable or self.indices.flags.writeable:
            self._fp = None
            return self._compute_fp()
        if self._fp is None:
            self._fp = self._compute_fp()
        return self._fp

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor (out-neighbor) view of vertex ``u``."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree (out-degree) of vertex ``u``."""
        return int(self._degrees[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the stored adjacency contains ``u -> v`` (binary
        search; ``O(log d(u))``)."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate stored edges.  For undirected graphs each edge is
        yielded once with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                v = int(v)
                if self.directed or u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """All stored edges as an ``(m, 2)`` array.  For undirected
        graphs, one row per edge with ``u < v``."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self._degrees
        )
        pairs = np.column_stack((src, self.indices))
        if not self.directed:
            pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        return pairs

    def adjacency_sets(self) -> list[set[int]]:
        """Adjacency as a list of Python sets (testing / oracles only)."""
        return [set(map(int, self.neighbors(u))) for u in range(self.num_vertices)]

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DAG" if self.directed else "undirected"
        return (
            f"CSRGraph({kind}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, max_deg={self.max_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self.directed, self.indptr.tobytes(), self.indices.tobytes())
        )
