"""The bitset backend: Python arbitrary-precision ints as bitsets.

One big-int per adjacency row, ``&`` and ``int.bit_count()`` doing the
word-parallel work in CPython's C layer — no conversion between the
rows and the recursion's big-int masks.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice

__all__ = ["BigIntKernel"]


def words_to_ints(words: np.ndarray) -> list[int]:
    """Big-int rows from packed ``(d, W)`` little-endian uint64 words."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    nb = 8 * words.shape[1]
    blob = words.tobytes()
    return [
        int.from_bytes(blob[i:i + nb], "little")
        for i in range(0, len(blob), nb)
    ]


class BigIntKernel(BitsetKernel):
    """Big-int-mask kernels (the SCT hot path)."""

    name = "bigint"

    # ------------------------------------------------------------------
    # row storage: a plain list of ints
    # ------------------------------------------------------------------
    def alloc_rows(self, d: int) -> list[int]:
        return [0] * d

    def load_rows(self, rows: list[int], words: np.ndarray) -> None:
        rows[:] = words_to_ints(words)

    def row_int(self, rows: list[int], i: int) -> int:
        return rows[i]

    def row_accessor(self, rows: list[int]):
        return rows.__getitem__

    # ------------------------------------------------------------------
    # fused kernels
    # ------------------------------------------------------------------
    def intersect_count(
        self, rows: list[int], i: int, mask: int
    ) -> tuple[int, int]:
        r = rows[i] & mask
        return r, r.bit_count()

    def pivot_select(self, rows: list[int], P: int, pc: int) -> PivotChoice:
        best = -1
        best_cnt = -1
        best_row = 0
        edge_sum = 0
        scan = P
        while scan:
            low = scan & -scan
            r = rows[low.bit_length() - 1] & P
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
