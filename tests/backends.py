"""The bitset backends the differential suites run every engine on.

The program ships one backend, :class:`~repro.kernels.BigIntKernel`.
The suites also run each engine on :class:`WordArrayKernel` below — a
second, independent implementation of the same
:class:`~repro.kernels.BitsetKernel` contract that stores one root's
rows in a NumPy ``(d, words)`` uint64 matrix and does every fused op as
word-array arithmetic — handed in as an instance through the engines'
``kernel=`` seam.  Counts, :class:`~repro.counting.counters.Counters`,
per-root vectors, forest arrays and kernel call counts must come out
bit-identical on both: the engines may rely on the contract, never on
how a backend stores its rows.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import BigIntKernel, BitsetKernel, PivotChoice

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    _popcount = np.bitwise_count
else:  # the byte lookup table NumPy 1.x needs
    _BYTE_POP = np.array([bin(i).count("1") for i in range(256)],
                         dtype=np.uint8)

    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-word popcount of a uint64 array, same shape."""
        return _BYTE_POP[words.view(np.uint8)].reshape(
            words.shape + (8,)).sum(axis=-1)


class _WordRows:
    """One root's rows: the ``(d, words)`` matrix and a big-int view of
    each row for ``row_int`` / ``row_accessor``."""

    __slots__ = ("mat", "ints")

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self.ints = [0] * mat.shape[0]


class WordArrayKernel(BitsetKernel):
    """Rows in one reused uint64 buffer; ops are NumPy word passes."""

    name = "wordarray"

    def __init__(self) -> None:
        self._buf = np.zeros(0, dtype=np.uint64)

    def alloc_rows(self, d: int) -> _WordRows:
        words = max(1, (d + 63) >> 6)
        need = d * words
        if self._buf.size < need:
            self._buf = np.zeros(max(need, 2 * self._buf.size),
                                 dtype=np.uint64)
        mat = self._buf[:need].reshape(d, words)
        mat.fill(0)
        return _WordRows(mat)

    def load_rows(self, rows: _WordRows, words: np.ndarray) -> None:
        rows.mat[:] = words
        rows.ints = [int.from_bytes(r.tobytes(), "little") for r in rows.mat]

    def row_int(self, rows: _WordRows, i: int) -> int:
        return rows.ints[i]

    def row_accessor(self, rows: _WordRows):
        return rows.ints.__getitem__

    @staticmethod
    def _words(rows: _WordRows, mask: int) -> np.ndarray:
        """``mask`` as one row's worth of little-endian uint64 words."""
        return np.frombuffer(
            mask.to_bytes(8 * rows.mat.shape[1], "little"), dtype=np.uint64
        )

    def intersect_count(
        self, rows: _WordRows, i: int, mask: int
    ) -> tuple[int, int]:
        inter = rows.mat[i] & self._words(rows, mask)
        return (int.from_bytes(inter.tobytes(), "little"),
                int(_popcount(inter).sum()))

    def pivot_select(self, rows: _WordRows, P: int, pc: int) -> PivotChoice:
        # Every candidate's count in one pass, then the scan's rules:
        # stop at the first perfect pivot, else keep the first maximum,
        # and charge only the rows a scan in ascending id order reads.
        Pw = self._words(rows, P)
        cand = np.flatnonzero(
            np.unpackbits(Pw.view(np.uint8), bitorder="little")
        )
        if not cand.size:
            return -1, 0, -1, 0
        inter = rows.mat[cand] & Pw
        cnts = _popcount(inter).sum(axis=1, dtype=np.int64)
        perfect = np.flatnonzero(cnts == pc - 1)
        if perfect.size:
            pos = int(perfect[0])
            edge_sum = int(cnts[: pos + 1].sum())
        else:
            pos = int(np.argmax(cnts))
            edge_sum = int(cnts.sum())
        best_row = int.from_bytes(inter[pos].tobytes(), "little")
        return int(cand[pos]), best_row, int(cnts[pos]), edge_sum


#: Every backend the differential suites run, by the name each reports.
KERNELS = {"bigint": BigIntKernel, "wordarray": WordArrayKernel}
KERNEL_NAMES = tuple(KERNELS)


def make_kernel(name: str) -> BitsetKernel:
    """A fresh instance of the backend ``name`` (each engine owns the
    row storage of its kernel instance)."""
    return KERNELS[name]()
