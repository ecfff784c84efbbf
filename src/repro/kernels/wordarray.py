"""NumPy uint64 word-array backend — vectorized intersect/popcount.

Rows live in one preallocated ``(d, words)`` uint64 matrix (``words =
ceil(d / 64)``), reused across roots per the paper's allocation-reuse
discipline (Sec. V-B).  The fused kernels do the paper's word-parallel
work with single NumPy passes instead of a Python-level scan:

* ``count_rows`` / ``pivot_select`` — broadcast ``rows & P`` over the
  whole candidate set at once, then popcount every word in one pass —
  the ``np.bitwise_count`` ufunc where available (NumPy >= 2.0), else a
  256-entry byte lookup table (one fancy-index + one reduction);
* ``pivot_select`` *emulates* the scalar scan's early exit: it finds
  the first perfect pivot in ascending local-id order and charges
  ``edge_sum`` only for the rows a scalar scan would have touched, so
  :class:`~repro.counting.counters.Counters` stay backend-invariant.

Tier 2 — frontier batching.  This backend sets ``frontier = True``:
masks stay *native* ``(words,)`` uint64 arrays across recursive calls
(big-int only at the API boundary), and the batched kernels
(``pivot_select_sweep`` / ``expand_children`` / the frontier form of
``intersect_count_sweep``) process a whole frontier level as one word
tile.  The tile is built in *transposed* ``(F, words, d)`` layout —
``rowsᵀ & masks`` broadcast with the ``d`` axis contiguous innermost —
which measures ~2.4x faster than the naive ``(F, d, words)`` layout on
the dense gate (the broadcast ufunc's inner loop then runs over ``d``
elements per call instead of ``words``).  Small frontiers adaptively
fall back to the scalar big-int scan over the cached ``ints`` mirror,
where CPython big-int arithmetic beats NumPy's fixed per-call overhead.

Masks cross the API boundary as Python big-ints (the recursion's
currency); conversions are single C-level ``int.to_bytes`` /
``int.from_bytes`` calls per kernel invocation.  Word layout is
little-endian, matching ``int.to_bytes(..., "little")``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice, words_to_ints

__all__ = ["WordArrayKernel"]

#: popcount of every byte value — the byte-LUT fallback popcount.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: hardware popcount ufunc

    def _popcount_words(block: np.ndarray) -> np.ndarray:
        """Per-word popcount (uint8, same shape) of a uint64 block."""
        return np.bitwise_count(block)

else:  # pragma: no cover - exercised only on NumPy 1.x

    def _popcount_words(block: np.ndarray) -> np.ndarray:
        return _POPCOUNT8[block.view(np.uint8)].reshape(
            block.shape + (8,)
        ).sum(axis=-1, dtype=np.uint8)


def _popcount_rows(inter: np.ndarray) -> np.ndarray:
    """Per-row popcount of a (m, words) uint64 block."""
    return _popcount_words(inter).sum(axis=1, dtype=np.int64)


#: Below this total sweep area (``F * d``), the scalar big-int scan
#: over the cached ``ints`` mirror beats the word-tile pipeline's fixed
#: NumPy overhead (measured crossover on 1-core x86).
_SWEEP_SCALAR_AREA = 2048

#: Below this child count, ``expand_children`` runs the scalar big-int
#: branch loop instead of the gather/prefix-or tile path.
_EXPAND_SCALAR_CHILDREN = 24

#: Below this candidate count, single-mask ``pivot_select`` runs the
#: scalar big-int scan: the NumPy path's fixed cost (mask unpack,
#: gather, argmax) only amortizes once the scan touches ~100 rows
#: (measured crossover at word counts 1-4 on 1-core x86).
_PIVOT_SCALAR_PC = 96


class _WordRows:
    """One root's adjacency rows as a (d, words) uint64 matrix view.

    ``ints`` mirrors each row as a Python big-int, filled by
    ``set_row``/``load_rows``: single-row kernels (``intersect_count``
    dominates the scalar branch loop) then run entirely in CPython
    big-int arithmetic with zero per-call ``tobytes`` conversion, while
    the batch kernels keep vectorizing over ``mat``.  ``matT`` lazily
    caches the transposed copy the frontier tile kernels broadcast
    against; it is invalidated by any row mutation.
    """

    __slots__ = ("mat", "d", "words", "nbytes_row", "ints", "_matT")

    def __init__(self, mat: np.ndarray, d: int, words: int) -> None:
        self.mat = mat
        self.d = d
        self.words = words
        self.nbytes_row = words * 8
        self.ints: list[int] = [0] * d
        self._matT: np.ndarray | None = None

    @property
    def matT(self) -> np.ndarray:
        """Contiguous ``(words, d)`` transpose of ``mat`` (cached)."""
        t = self._matT
        if t is None:
            t = self._matT = np.ascontiguousarray(self.mat.T)
        return t


class WordArrayKernel(BitsetKernel):
    """Word-array kernels (the NumPy fast path)."""

    name = "wordarray"
    frontier = True

    def __init__(self) -> None:
        self._buf = np.zeros(0, dtype=np.uint64)

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    def alloc_rows(self, d: int) -> _WordRows:
        words = max(1, (d + 63) >> 6)
        need = d * words
        if self._buf.size < need:
            self._buf = np.zeros(max(need, 2 * self._buf.size), dtype=np.uint64)
        mat = self._buf[:need].reshape(d, words)
        mat.fill(0)
        return _WordRows(mat, d, words)

    def set_row(self, rows: _WordRows, i: int, bits: np.ndarray) -> None:
        rows._matT = None
        if len(bits) == 0:
            rows.mat[i].fill(0)
            rows.ints[i] = 0
            return
        flags = np.zeros(rows.words * 64, dtype=np.uint8)
        flags[bits] = 1
        packed = np.packbits(flags, bitorder="little")
        rows.mat[i] = packed.view(np.uint64)
        rows.ints[i] = int.from_bytes(packed.tobytes(), "little")

    def load_rows(self, rows: _WordRows, words: np.ndarray) -> None:
        rows._matT = None
        rows.mat[:] = words
        rows.ints = words_to_ints(words)

    def row_int(self, rows: _WordRows, i: int) -> int:
        return rows.ints[i]

    def num_rows(self, rows: _WordRows) -> int:
        return rows.d

    # ------------------------------------------------------------------
    # mask conversion helpers (polymorphic: big-int or native words)
    # ------------------------------------------------------------------
    def mask_int(self, rows: _WordRows, mask: Any) -> int:
        if isinstance(mask, int):
            return mask
        return int.from_bytes(mask.tobytes(), "little")

    def to_native(self, rows: _WordRows, mask: Any) -> np.ndarray:
        if isinstance(mask, int):
            return np.frombuffer(
                mask.to_bytes(rows.nbytes_row, "little"), dtype=np.uint64
            )
        return mask

    def _mask_words(self, rows: _WordRows, mask: Any) -> np.ndarray:
        return self.to_native(rows, mask)

    @staticmethod
    def _mask_bits(rows: _WordRows, mask: Any) -> np.ndarray:
        """Set-bit positions of ``mask`` (big-int or native), ascending."""
        if isinstance(mask, int):
            raw = np.frombuffer(
                mask.to_bytes(rows.nbytes_row, "little"), dtype=np.uint8
            )
        else:
            raw = np.ascontiguousarray(mask).view(np.uint8)
        return np.flatnonzero(np.unpackbits(raw, bitorder="little"))

    # ------------------------------------------------------------------
    # fused kernels
    # ------------------------------------------------------------------
    def intersect(self, rows: _WordRows, i: int, mask: Any) -> int:
        # Single-row ops: NumPy's per-call overhead (~us) swamps the
        # work on one row, so route through CPython big-int arithmetic
        # over the cached big-int mirror of the row.
        return rows.ints[i] & self.mask_int(rows, mask)

    def intersect_count(
        self, rows: _WordRows, i: int, mask: Any
    ) -> tuple[int, int]:
        r = rows.ints[i] & self.mask_int(rows, mask)
        return r, r.bit_count()

    def row_accessor(self, rows: _WordRows):
        return rows.ints.__getitem__

    def count_rows(self, rows: _WordRows, mask: Any) -> np.ndarray:
        if rows.d == 0:
            return np.zeros(0, dtype=np.int64)
        inter = rows.mat & self._mask_words(rows, mask)
        return _popcount_rows(inter)

    def intersect_count_sweep(self, rows: _WordRows, mask: Any) -> Any:
        if not isinstance(mask, int) and not (
            isinstance(mask, np.ndarray) and mask.ndim == 1
        ):
            return self._frontier_sweep(rows, mask)
        # Batched single-mask pass over the cached big-int rows: the
        # masks must be produced per row regardless, and at realistic
        # row widths a NumPy popcount pass measures *slower* than
        # scalar ``int.bit_count`` (it duplicates the ``&`` over the
        # matrix), so the win comes from dropping the per-row call
        # dispatch of the reference sweep, not from vectorizing.
        m = self.mask_int(rows, mask)
        return [(r := row & m, r.bit_count()) for row in rows.ints]

    # -- frontier tile machinery ---------------------------------------
    def _tile(
        self, rows: _WordRows, M: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(tileT, counts)`` for a stacked ``(F, words)`` mask block.

        ``tileT[j, w, i] = mat[i, w] & M[j, w]`` (transposed layout,
        ``d`` contiguous innermost); ``counts[j, i] = |row(i) & m_j|``.
        """
        words = rows.words
        tileT = np.bitwise_and(rows.matT[None, :, :], M[:, :, None])
        cnt = _popcount_words(tileT)  # (F, words, d) uint8
        acc_t = np.int16 if words * 64 <= 32767 else np.int64
        counts = cnt[:, 0, :].astype(acc_t)
        for w in range(1, words):
            np.add(counts, cnt[:, w, :], out=counts, casting="unsafe")
        return tileT, counts

    def _frontier_sweep(
        self, rows: _WordRows, masks: Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        M = np.stack([self.to_native(rows, m) for m in masks])
        return self._tile(rows, M)

    def sweep_entry(
        self, rows: _WordRows, batch: Any, j: int, i: int
    ) -> tuple[int, int]:
        tileT, counts = batch
        inter = int.from_bytes(
            np.ascontiguousarray(tileT[j, :, i]).tobytes(), "little"
        )
        return inter, int(counts[j, i])

    def pivot_select(self, rows: _WordRows, P: Any, pc: int) -> PivotChoice:
        if pc < _PIVOT_SCALAR_PC:
            # Small scans (the hybrid spine's scalar subtrees live
            # here) stay in CPython big-int arithmetic — NumPy's fixed
            # dispatch overhead dominates below the crossover.
            return self._pivot_scan_int(
                rows.ints, self.mask_int(rows, P), pc
            )
        Pw = self._mask_words(rows, P)
        cand = self._mask_bits(rows, P)
        inter = rows.mat[cand] & Pw
        cnts = _popcount_rows(inter)
        # Emulate the scalar scan: stop at the first perfect pivot,
        # first-occurrence tie-break otherwise (np.argmax is exactly
        # that), and charge only the rows a scalar scan would touch.
        perfect = np.flatnonzero(cnts == pc - 1)
        if perfect.size:
            pos = int(perfect[0])
            best_cnt = pc - 1
            edge_sum = int(cnts[: pos + 1].sum())
        else:
            pos = int(np.argmax(cnts))
            best_cnt = int(cnts[pos])
            edge_sum = int(cnts.sum())
        best_row = int.from_bytes(inter[pos].tobytes(), "little")
        return int(cand[pos]), best_row, best_cnt, edge_sum

    def _pivot_scan_int(self, ints: list[int], P: int, pc: int) -> PivotChoice:
        """The scalar big-int scan over the cached row mirror — the
        small-frontier fast path (CPython beats NumPy dispatch here)."""
        best = -1
        best_cnt = -1
        best_row = 0
        edge_sum = 0
        scan = P
        while scan:
            low = scan & -scan
            r = ints[low.bit_length() - 1] & P
            c = r.bit_count()
            edge_sum += c
            if c > best_cnt:
                best_cnt = c
                best = low.bit_length() - 1
                best_row = r
                if c == pc - 1:
                    break  # perfect pivot: adjacent to all others
            scan ^= low
        return best, best_row, best_cnt, edge_sum

    def pivot_select_sweep(
        self, rows: _WordRows, masks: Sequence[Any], pcs: Sequence[int]
    ) -> tuple[Sequence[int], Sequence[Any], Sequence[int], Sequence[int]]:
        F = len(masks)
        if F == 0:
            return [], [], [], []
        if (
            F * rows.d < _SWEEP_SCALAR_AREA
            or rows.d == 0
            or min(pcs) < 1
        ):
            ints = rows.ints
            out = [
                self._pivot_scan_int(ints, self.mask_int(rows, m), pc)
                for m, pc in zip(masks, pcs)
            ]
            bests, brows, bcnts, edges = zip(*out)
            return list(bests), list(brows), list(bcnts), list(edges)

        d = rows.d
        M = np.stack([self.to_native(rows, m) for m in masks])
        tileT, counts = self._tile(rows, M)
        bitsM = np.unpackbits(
            M.view(np.uint8), axis=1, bitorder="little"
        )[:, :d]
        c0 = counts * bitsM
        pos = np.argmax(c0, axis=1)
        jj = np.arange(F)
        best_cnt = c0[jj, pos]
        zero = best_cnt == 0
        if zero.any():
            # All candidate counts are zero: the scalar scan's "first
            # maximum" is then the first candidate bit, which a plain
            # argmax over the zero matrix would miss.
            pos[zero] = np.argmax(bitsM[zero], axis=1)
        pcs_a = np.asarray(pcs, dtype=np.int64)
        edge = c0.sum(axis=1, dtype=np.int64)
        perfect = np.flatnonzero(best_cnt == pcs_a - 1)
        for j in perfect.tolist():
            # Perfect pivot: the scalar scan stops early — charge only
            # the rows it would have touched (prefix up to the stop).
            edge[j] = int(c0[j, : pos[j] + 1].sum())
        best_rows = tileT[jj, :, pos]  # (F, words), contiguous copies
        return (
            [int(b) for b in pos],
            list(best_rows),
            [int(c) for c in best_cnt],
            [int(e) for e in edge],
        )

    def expand_children(
        self, rows: _WordRows, P: Any, best: int, best_row: Any
    ) -> tuple[list[int], list[Any], list[int]]:
        P0 = self.mask_int(rows, P) & ~(1 << best)
        cand = P0 & ~self.mask_int(rows, best_row)
        m = cand.bit_count()
        if m == 0:
            return [], [], []
        if m < _EXPAND_SCALAR_CHILDREN:
            ints = rows.ints
            ws: list[int] = []
            children: list[Any] = []
            ccs: list[int] = []
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                child = ints[w] & P0
                ws.append(w)
                children.append(child)
                ccs.append(child.bit_count())
                P0 ^= low
                cand ^= low
            return ws, children, ccs
        ws_a = self._mask_bits(rows, cand)
        P0w = np.frombuffer(
            P0.to_bytes(rows.nbytes_row, "little"), dtype=np.uint64
        )
        W = rows.mat[ws_a]  # (m, words)
        oh = np.zeros((m, rows.words), dtype=np.uint64)
        oh[np.arange(m), ws_a >> 6] = np.uint64(1) << (
            ws_a.astype(np.uint64) & np.uint64(63)
        )
        # Exclusive prefix-OR of the branch one-hots: child i must drop
        # every earlier branch vertex (the scalar loop's ``P ^= low``).
        excl = np.bitwise_or.accumulate(oh, axis=0) ^ oh
        children_m = W & P0w & ~excl
        ccs_a = _popcount_rows(children_m)
        return (
            [int(w) for w in ws_a],
            list(children_m),
            [int(c) for c in ccs_a],
        )
