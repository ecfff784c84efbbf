"""Test-side bitset backends and the reference pivot walker.

The program has one backend and no kernel seam: rows are plain lists
of big-ints, the engines intersect inline and call
:func:`repro.kernels.pivot_select`.  The suites keep two backends of
the kernel contract the engines once called through, both independent
of that code:

* :class:`BigIntKernel`, a copy of the former big-int kernel class;
* :class:`WordArrayKernel`, which stores one root's rows in a NumPy
  ``(d, words)`` uint64 matrix and does every op as word-array
  arithmetic.

They serve two purposes.  :func:`reference_walk_root` is the kernel
based leaf walker the engines used before the seam was deleted, kept
verbatim as the oracle the differential suites hold the production
recursions to (counts, leaves, :class:`~repro.counting.counters.Counters`
and the kernel calls a :class:`CountingKernel` sees).  And
:func:`backend` runs the program with a test backend's pivot scan and
row loader swapped in for :mod:`repro.kernels`' own, so every suite
parametrized over :data:`KERNEL_NAMES` checks that no result depends
on how the scan or the loader is implemented.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import kernels
from repro.counting.counters import Counters

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    _popcount = np.bitwise_count
else:  # the byte lookup table NumPy 1.x needs
    _BYTE_POP = np.array([bin(i).count("1") for i in range(256)],
                         dtype=np.uint8)

    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-word popcount of a uint64 array, same shape."""
        return _BYTE_POP[words.view(np.uint8)].reshape(
            words.shape + (8,)).sum(axis=-1)


def pack_rows(masks, d: int) -> np.ndarray:
    """Rows as the ``(d, ⌈d/64⌉)`` little-endian uint64 words the
    structures induce and ``load_rows`` takes (one word at least)."""
    nw = max(1, (d + 63) >> 6)
    return np.array(
        [[(m >> (64 * w)) & (2**64 - 1) for w in range(nw)] for m in masks],
        dtype=np.uint64,
    ).reshape(d, nw)


class BigIntKernel:
    """The former big-int kernel: one Python int per row."""

    name = "bigint"

    def alloc_rows(self, d: int) -> list[int]:
        return [0] * d

    def load_rows(self, rows: list[int], words: np.ndarray) -> None:
        rows[:] = kernels.words_to_ints(words)

    def row_int(self, rows: list[int], i: int) -> int:
        return rows[i]

    def row_accessor(self, rows: list[int]):
        return rows.__getitem__

    def intersect_count(
        self, rows: list[int], i: int, mask: int
    ) -> tuple[int, int]:
        r = rows[i] & mask
        return r, r.bit_count()

    def pivot_select(self, rows: list[int], P: int, pc: int):
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


class _WordRows:
    """One root's rows: the ``(d, words)`` matrix and a big-int view of
    each row for ``row_int`` / ``row_accessor``."""

    __slots__ = ("mat", "ints")

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self.ints = [0] * mat.shape[0]


class WordArrayKernel:
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

    def pivot_select(self, rows: _WordRows, P: int, pc: int):
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


class CountingKernel:
    """A backend that counts every call of the four ops the program's
    ``kernel_calls_total`` reports, in :data:`repro.kernels.OPS` order."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = dict.fromkeys(kernels.OPS, 0)

    def alloc_rows(self, d):
        self.calls["alloc_rows"] += 1
        return self.inner.alloc_rows(d)

    def load_rows(self, rows, words):
        self.calls["load_rows"] += 1
        self.inner.load_rows(rows, words)

    def intersect_count(self, rows, i, mask):
        self.calls["intersect_count"] += 1
        return self.inner.intersect_count(rows, i, mask)

    def pivot_select(self, rows, P, pc):
        self.calls["pivot_select"] += 1
        return self.inner.pivot_select(rows, P, pc)


#: Every backend the suites run, by the name each reports.
KERNELS = {"bigint": BigIntKernel, "wordarray": WordArrayKernel}
KERNEL_NAMES = tuple(KERNELS)


def make_kernel(name: str):
    """A fresh instance of the test backend ``name``."""
    return KERNELS[name]()


# ----------------------------------------------------------------------
# the reference walker: the kernel-based walk_root, verbatim
# ----------------------------------------------------------------------
def reference_walk_root(
    kern, ctx, v: int, ctr: Counters, leaf, *,
    k: int | None = None, cap: int | None = None,
    early_termination: bool = True,
) -> None:
    """Walk root ``v``'s pivot tree through the kernel ``kern`` — the
    leaf walker as it was written against the kernel contract — calling
    ``leaf(held, pivots, held_ids, pivot_ids)`` at every leaf and
    charging ``ctr``.

    ``ctx`` is a built root context; its rows are loaded into ``kern``
    from their packed words.  With ``k`` it walks
    :meth:`SCTEngine.count <repro.counting.sct.SCTEngine.count>`'s tree
    (without the reach prune when ``early_termination`` is off), with
    ``cap`` :meth:`~repro.counting.sct.SCTEngine.count_all`'s, and with
    neither the forest's.
    """
    rows = kern.alloc_rows(ctx.d)
    if ctx.d:
        kern.load_rows(rows, pack_rows(ctx.rows, ctx.d))
    pivot_select = kern.pivot_select
    intersect_count = kern.intersect_count
    out = ctx.out.tolist()
    held_ids: list[int] = [v]
    pivot_ids: list[int] = []
    acc = [0, 0, 0, 0, 0, 0, 0]
    stop = k if k is not None else cap if cap is not None else ctx.d + 2
    cut = k is None
    reach = (k or 0) if early_termination else 0

    def rec(P: int, pc: int, held: int, pivots: int) -> None:
        acc[0] += 1
        if held >= stop:
            if cut:
                acc[2] += 1
                return
        elif pc:
            if reach and held + pivots + pc < reach:
                acc[2] += 1
                return
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            pivot_ids.append(out[best])
            rec(best_row, best_cnt, held, pivots + 1)
            pivot_ids.pop()
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                w = low.bit_length() - 1
                child, cc = intersect_count(rows, w, P)
                edge_sum += cc
                held_ids.append(out[w])
                rec(child, cc, held1, pivots)
                held_ids.pop()
                P ^= low
                cand ^= low
            acc[6] += edge_sum
            return
        acc[1] += 1
        depth = held + pivots
        if depth > acc[5]:
            acc[5] = depth
        leaf(held, pivots, held_ids, pivot_ids)

    rec((1 << ctx.d) - 1, ctx.d, 1, 0)
    ctr.charge_root(ctx, acc)


def reference_roots(
    kern, struct, roots, leaf, *, k: int | None = None,
    cap: int | None = None, early_termination: bool = True,
    prune: bool = False,
):
    """The root loop over :func:`reference_walk_root`, one
    ``struct.build`` per root in order.  Returns ``(totals, per-root
    Counters)``.

    ``prune`` applies the SCT engine's degree prune: a root whose
    non-empty out-neighborhood is too small for a ``k``-clique is not
    built, only charged the counters its build and immediate early exit
    would have produced.
    """
    totals = Counters()
    per_root = []
    for v in np.asarray(roots, dtype=np.int64).tolist():
        ctr = Counters()
        d, est_words, est_bytes = struct.estimate(v)
        if prune and k is not None and k >= 2 and 0 < d < k - 1:
            ctr.subgraph_builds += 1
            ctr.build_words += est_words
            ctr.peak_subgraph_bytes = max(ctr.peak_subgraph_bytes, est_bytes)
            ctr.function_calls += 1
            ctr.early_terminations += 1
        else:
            reference_walk_root(
                kern, struct.build(v), v, ctr, leaf, k=k, cap=cap,
                early_termination=early_termination,
            )
        per_root.append(ctr)
        totals.merge(ctr)
    return totals, per_root


# ----------------------------------------------------------------------
# running the program on a test backend
# ----------------------------------------------------------------------
class _Scan:
    """:func:`repro.kernels.pivot_select`'s signature over a test
    backend: the rows a walker passes are loaded into the backend once
    per root (the walkers pass one list per root) and scanned there."""

    def __init__(self, kern) -> None:
        self.kern = kern
        self.rows = None
        self.handle = None

    def __call__(self, rows, P, pc):
        if rows is not self.rows:
            self.handle = self.kern.alloc_rows(len(rows))
            if rows:
                self.kern.load_rows(self.handle, pack_rows(rows, len(rows)))
            self.rows = rows
        return self.kern.pivot_select(self.handle, P, pc)


def _loader(kern):
    """:func:`repro.kernels.words_to_ints` through a test backend's
    ``load_rows`` and ``row_int``."""

    def words_to_ints(words):
        rows = kern.alloc_rows(words.shape[0])
        kern.load_rows(rows, words)
        return [kern.row_int(rows, i) for i in range(words.shape[0])]

    return words_to_ints


@contextmanager
def backend(name: str):
    """Run the program with the test backend ``name``'s pivot scan and
    row loader in place of :mod:`repro.kernels`' own (``"bigint"``
    runs the program as it is)."""
    if name == kernels.NAME:
        yield
        return
    kern = make_kernel(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "pivot_select", _Scan(kern))
        mp.setattr(kernels, "words_to_ints", _loader(make_kernel(name)))
        yield
