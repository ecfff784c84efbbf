"""The reference backend: Python arbitrary-precision ints as bitsets.

This is the seed implementation's representation, promoted to a
backend: one big-int per adjacency row, ``&`` and ``int.bit_count()``
doing the word-parallel work in CPython's C layer.  It is the semantic
oracle the property suite holds every other backend against, and it
stays the default — zero conversion overhead, and unbeatable for the
many small subgraphs (``d <= 64``) that dominate sparse graphs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice, words_to_ints

__all__ = ["BigIntKernel"]


class BigIntKernel(BitsetKernel):
    """Big-int-mask kernels (the original SCT hot path)."""

    name = "bigint"

    # ------------------------------------------------------------------
    # row storage: a plain list of ints
    # ------------------------------------------------------------------
    def alloc_rows(self, d: int) -> list[int]:
        return [0] * d

    def set_row(self, rows: list[int], i: int, bits: np.ndarray) -> None:
        if len(bits) == 0:
            rows[i] = 0
            return
        d = len(rows)
        flags = np.zeros(d, dtype=np.uint8)
        flags[bits] = 1
        rows[i] = int.from_bytes(
            np.packbits(flags, bitorder="little").tobytes(), "little"
        )

    def load_rows(self, rows: list[int], words: np.ndarray) -> None:
        rows[:] = words_to_ints(words)

    def row_int(self, rows: list[int], i: int) -> int:
        return rows[i]

    def num_rows(self, rows: list[int]) -> int:
        return len(rows)

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

    def count_rows(self, rows: list[int], mask: int) -> Sequence[int]:
        return [(r & mask).bit_count() for r in rows]

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
