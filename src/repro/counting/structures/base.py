"""Shared machinery for the three subgraph structures.

Building the first-level induced subgraph (Alg. 1 line 5) is identical
for every structure: take the root's DAG out-neighborhood ``out`` (the
subgraph's vertex set) and give each member one bitset row over local
ids ``[0, d)`` marking its *undirected* neighbors in ``out`` — the
paper symmetrizes the first level (Sec. V-A).  Local id ``i`` is the
position of ``out[i]`` in the sorted out-neighbor array.

The induction is pairwise and vectorized: every (member, member) pair
is looked up in the graph's sorted ``u·n + w`` edge keys with one
``searchsorted``, and each member row is packed into little-endian
uint64 words.  :meth:`SubgraphStructure.build_many` induces a whole
block of roots per pass — on sparse graphs the per-root NumPy call
overhead, not the pair tests, is what root setup costs (Lonkar &
Beamer's communication-reducing setup) — while
:meth:`SubgraphStructure.build` is its lean one-root case.

``build_words`` is the *modeled* induction charge, not the Python work
done here: the paper's scan of every member's whole undirected neighbor
list (the sum of the members' degrees), plus the remap pass where
applicable.  Every root's charge is read from degrees in one pass over
the DAG when the structure is made, so :meth:`~SubgraphStructure.estimate`
predicts it exactly without building, and the induction strategy
cannot move it.

Rows are a plain list of big-int masks
(:func:`repro.kernels.words_to_ints`).  Structures differ only in
:meth:`RootContext.row` — how a row is reached during the recursion —
and in the modeled per-thread memory footprint.

A root's pivot tree, and with it every per-root counter, is a function
of its induced subgraph alone, and on sparse graphs those subgraphs
repeat.  So :meth:`SubgraphStructure.build_many` can look each block
root up in a caller's memo keyed by its packed rows, before they are
loaded, and hand back the stored value instead of loading rows for a
subgraph the caller has already counted.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro import kernels, obs
from repro.graph.csr import CSRGraph

__all__ = [
    "SubgraphStructure",
    "RootContext",
    "BLOCK_PAIRS",
    "plan_blocks",
]

#: Pair budget of one induction pass: :meth:`SubgraphStructure.build_many`
#: packs consecutive roots into blocks of at most this many
#: (member, member) pairs and splits a larger root by member rows, so a
#: block's temporaries stay a few dozen KB whatever the root sizes.
BLOCK_PAIRS = 4096

#: Widest root induced in a multi-root block: one uint64 word per row.
_BLOCK_MAX_D = min(64, int(BLOCK_PAIRS**0.5))

_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted ``u·n + w`` key of every CSR entry ``(u, w)`` of ``graph``,
    closed by an int64-max sentinel so that a ``searchsorted`` position
    is always a valid index."""
    n = graph.num_vertices
    keys = np.empty(graph.indices.size + 1, dtype=np.int64)
    np.multiply(
        np.repeat(np.arange(n, dtype=np.int64), graph.degrees), n,
        out=keys[:-1],
    )
    keys[:-1] += graph.indices
    keys[-1] = np.iinfo(np.int64).max
    return keys


def _row_passes(d: int) -> list[tuple[int, int]]:
    """Member-row ranges a root too wide for a block is induced in."""
    step = max(1, BLOCK_PAIRS // d)
    return [(lo, min(d, lo + step)) for lo in range(0, d, step)]


def plan_blocks(
    degrees: Iterable[int],
) -> Iterator[tuple[int, int, list[tuple[int, int]] | None]]:
    """The blocks :meth:`SubgraphStructure.build_many` induces over
    roots of out-degrees ``degrees`` (in order), lazily.

    Each block is ``(first, stop, rows)``: the roots ``[first, stop)``
    induced together in one pass (``rows`` is ``None``), or the single
    root ``first`` whose ``d`` exceeds one word per row or whose ``d²``
    pairs exceed :data:`BLOCK_PAIRS`, induced in one pass per member
    row range in ``rows``.
    """
    ds = np.asarray(degrees, dtype=np.int64)
    cum = np.cumsum(ds * ds)
    i = 0
    while i < ds.size:
        d = int(ds[i])
        if d > _BLOCK_MAX_D:
            yield i, i + 1, _row_passes(d)
            i += 1
            continue
        # Extend the block while it stays within the pair budget; a
        # root wider than _BLOCK_MAX_D has d² > BLOCK_PAIRS, so the
        # budget alone stops the block in front of it.
        base = int(cum[i - 1]) if i else 0
        stop = int(cum.searchsorted(base + BLOCK_PAIRS, side="right"))
        yield i, stop, None
        i = stop


class RootContext:
    """One root vertex's induced subgraph, ready for the recursion.

    Attributes
    ----------
    d:
        Subgraph size (the root's DAG out-degree).
    out:
        Sorted global ids of the subgraph's vertices; local id ``i``
        names ``out[i]``.
    row:
        Callable ``local id -> big-int bitset row``; the
        structure-specific index path (the compat view every consumer
        can fall back to).
    lookup_weight:
        Cost charged per :attr:`row` access (dense/remap 1.0, hash 1.2).
    memory_bytes:
        Modeled per-thread footprint of this structure while the root
        is being processed (feeds the LLC model).
    build_words:
        Modeled work of the first-level induction (plus remap where
        applicable).
    rows:
        The big-int rows in local-id order, the list the recursion
        intersects and :func:`~repro.kernels.pivot_select` scans.
    key:
        The packed rows as bytes when this root was looked up in a
        memo and missed (see :meth:`SubgraphStructure.build_many`),
        else ``None``.
    """

    __slots__ = (
        "d",
        "out",
        "row",
        "lookup_weight",
        "memory_bytes",
        "build_words",
        "rows",
        "key",
    )

    def __init__(
        self,
        d: int,
        out: np.ndarray,
        row: Callable[[int], int],
        lookup_weight: float,
        memory_bytes: int,
        build_words: float,
        rows: list[int],
    ) -> None:
        self.d = d
        self.out = out
        self.row = row
        self.lookup_weight = lookup_weight
        self.memory_bytes = memory_bytes
        self.build_words = build_words
        self.rows = rows
        self.key: bytes | None = None


class SubgraphStructure(abc.ABC):
    """Factory for per-root contexts over a (graph, DAG) pair.

    Instances are meant to be reused across roots — the paper's
    allocation-reuse discipline (Sec. V-B); the dense structure in
    particular allocates its ``|V|``-sized index once.
    """

    #: registry name ("dense" / "sparse" / "remap")
    name: str = "base"
    #: cost per index access, relative to a direct array load
    lookup_weight: float = 1.0
    #: modeled ``build_words`` per member on top of the neighbor scan
    member_words: float = 0.0

    def __init__(
        self,
        graph: CSRGraph,
        dag: CSRGraph,
    ) -> None:
        if graph.directed or not dag.directed:
            raise ValueError("expected (undirected graph, DAG) pair")
        if graph.num_vertices != dag.num_vertices:
            raise ValueError("graph and DAG vertex counts differ")
        self.graph = graph
        self.dag = dag
        self._keys = _edge_keys(graph)
        # Every root's build charge in one pass over the DAG: the sum
        # of its members' undirected degrees (the modeled scan).
        scan = np.zeros(dag.indices.size + 1, dtype=np.int64)
        np.cumsum(graph.degrees[dag.indices], out=scan[1:])
        words = (scan[dag.indptr[1:]] - scan[dag.indptr[:-1]]).astype(
            np.float64
        )
        if self.member_words:
            words += self.member_words * dag.degrees
        self._build_words = words

    # ------------------------------------------------------------------
    # structure-specific parts
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def memory_bytes(self, d: int) -> int:
        """Modeled per-thread footprint while a ``d``-member root is
        processed (elementwise when ``d`` is an integer array)."""

    @abc.abstractmethod
    def _row_accessor(
        self, out: np.ndarray, rows: list[int]
    ) -> Callable[[int], int]:
        """The structure's ``local id -> big-int row`` index path over
        one root's freshly loaded ``rows`` (a structure that keeps an
        index across roots points it at this root here)."""

    def _reset(self) -> None:
        """Drop per-root index state before a new induction (no-op
        unless the structure keeps state across roots)."""

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def estimate(self, v: int) -> tuple[int, float, int]:
        """``(d, build_words, memory_bytes)`` of ``build(v)``, exactly,
        *without* building.

        Engines use this for degree-based candidate pruning (Lonkar &
        Beamer's communication-reducing trick): a root whose
        out-degree already rules out any k-clique is charged exactly
        the counters a real build would have produced and then skipped
        before its rows are built.
        """
        d = int(self.dag.degrees[v])
        return d, float(self._build_words[v]), self.memory_bytes(d)

    def model_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Every root's ``build_words`` and ``memory_bytes`` (as in
        :meth:`estimate`) at once: two float64 arrays indexed by root,
        the dtype of the per-root model vectors."""
        memory = self.memory_bytes(self.dag.degrees).astype(np.float64)
        return self._build_words, memory

    def build(self, v: int) -> RootContext:
        """Induce the first-level subgraph for root ``v`` — the one-root
        case of :meth:`build_many`, without the block bookkeeping."""
        self._reset()
        out = self.dag.neighbors(v)
        d = int(out.size)
        words = None
        if d > _BLOCK_MAX_D:
            words = np.concatenate(
                [self._induce_rows(out, lo, hi) for lo, hi in _row_passes(d)]
            )
        elif d:
            words = self._induce_rows(out, 0, d)
        return self._context(out, d, words, float(self._build_words[v]))

    def build_many(
        self, roots: Iterable[int], memo: dict | None = None
    ) -> Iterator[RootContext | Any]:
        """Lazily yield ``build(v)`` for every ``v`` in ``roots``, in
        order, inducing a block of roots per vectorized pass (see
        :func:`plan_blocks`).

        A block is induced when its first root is advanced to; each
        context's rows are allocated and loaded just before it is
        yielded, and an error raised by a block's induction surfaces on
        the ``next()`` that advanced to its first root.

        With ``memo``, every root induced in a multi-root block
        (``d <= 64``, one word per row) is looked up by its key, its
        packed rows as bytes (their length fixes ``d``).  A hit yields
        the stored ``memo[key]`` and loads nothing; a miss yields the
        context with :attr:`RootContext.key` set, for the caller to
        store its value under.  Roots induced alone in row passes are
        never looked up.
        """
        roots = np.asarray(roots, dtype=np.int64)
        dag = self.dag
        ds = dag.degrees[roots]
        for first, stop, passes in plan_blocks(ds):
            self._reset()
            if passes is not None:
                v = int(roots[first])
                out = dag.neighbors(v)
                parts = []
                for lo, hi in passes:
                    with obs.phase("root_setup"):
                        parts.append(self._induce_rows(out, lo, hi))
                yield self._context(
                    out, out.size, np.concatenate(parts),
                    float(self._build_words[v]),
                )
                continue
            block = roots[first:stop]
            with obs.phase("root_setup"):
                mem, words = self._induce_block(block, ds[first:stop])
            packed = None if memo is None else words.tobytes()
            m0 = 0
            for d, bw in zip(
                ds[first:stop].tolist(), self._build_words[block].tolist()
            ):
                m1 = m0 + d
                key = None if packed is None else packed[8 * m0 : 8 * m1]
                hit = None if key is None else memo.get(key)
                if hit is not None:
                    yield hit
                else:
                    ctx = self._context(mem[m0:m1], d, words[m0:m1], bw)
                    ctx.key = key
                    yield ctx
                m0 = m1

    def _context(
        self,
        out: np.ndarray,
        d: int,
        words: np.ndarray | None,
        build_words: float,
    ) -> RootContext:
        """Load ``words`` into fresh big-int rows and wrap them."""
        rows = kernels.words_to_ints(words) if d else []
        return RootContext(
            d,
            out,
            self._row_accessor(out, rows),
            self.lookup_weight,
            self.memory_bytes(d),
            build_words,
            rows,
        )

    # ------------------------------------------------------------------
    # the pairwise induction
    # ------------------------------------------------------------------
    def _induce_rows(self, out: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Packed rows ``[lo, hi)`` of the subgraph induced by ``out``:
        a ``(hi - lo, ⌈d/64⌉)`` little-endian uint64 array."""
        d = int(out.size)
        keys = self._keys
        key = (out[lo:hi] * self.graph.num_vertices)[:, None] + out
        hit = keys[keys.searchsorted(key)] == key
        if d <= 64:
            return hit.dot(_POW2[:d])[:, None]
        flags = np.zeros((hi - lo, ((d + 63) >> 6) << 6), dtype=bool)
        flags[:, :d] = hit
        return np.packbits(flags, axis=1, bitorder="little").view(np.uint64)

    def _induce_block(
        self, roots: np.ndarray, ds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Members and packed rows of a block of roots, each with
        ``d <= 64``: ``(mem, words)`` where ``mem`` concatenates the
        roots' out-neighborhoods and ``words[t]`` (shape ``(T, 1)``) is
        member ``mem[t]``'s row within its own root."""
        dag = self.dag
        total = int(ds.sum())
        moff = np.cumsum(ds) - ds
        mem = dag.indices[
            np.repeat(dag.indptr[roots] - moff, ds)
            + np.arange(total, dtype=np.int64)
        ]
        if total == 0:
            return mem, np.zeros((0, 1), dtype=np.uint64)
        # Row t pairs member mem[t] with every member of its root:
        # pairs [pstart[t], pstart[t] + rd[t]), the j-th one testing
        # local id j.
        rd = np.repeat(ds, ds)
        roff = np.repeat(moff, ds)
        pstart = np.cumsum(rd) - rd
        npairs = int(pstart[-1] + rd[-1])
        j = np.arange(npairs, dtype=np.int64) - np.repeat(pstart, rd)
        key = (
            np.repeat(mem * self.graph.num_vertices, rd)
            + mem[np.repeat(roff, rd) + j]
        )
        keys = self._keys
        bits = _POW2[j]
        bits *= keys[keys.searchsorted(key)] == key
        return mem, np.bitwise_or.reduceat(bits, pstart)[:, None]

    def bitset_bytes(self, d: int) -> int:
        """Footprint of the ``d x d`` bitset adjacency itself."""
        words = (d + 63) >> 6
        return d * words * 8
