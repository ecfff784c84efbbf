"""The bitset-kernel contract — the hot-path seam of the counting phase.

Every counting engine (SCT, enumeration, per-vertex / per-edge
attribution) spends essentially all of its time doing two things inside
the pivot recursion: intersecting an adjacency row with the candidate
set, and popcounting the result ("The Power of Pivoting" and Arb-Count
both report the intersect-and-count kernel as the dominant cost).  This
module makes that kernel a first-class, swappable layer:

* a **backend** owns the storage of one root's local adjacency rows and
  implements the word-parallel operations over them;
* the recursion keeps its control flow — and its *masks* — as exact
  Python big-ints, so counts are trivially identical across backends;
* every fused kernel reproduces the scalar big-int scan semantics
  bit-for-bit (same tie-breaks, same early exits, same per-row work
  totals), so the instrumentation :class:`~repro.counting.counters.Counters`
  are backend-invariant by construction — the performance model never
  sees which backend ran.

Backends registered in :mod:`repro.kernels` (``bigint`` — the original
Python big-int masks — and ``wordarray`` — NumPy uint64 word arrays)
are selected per engine via :class:`repro.core.config.PivotScaleConfig`
or the CLI's ``--kernel`` flag.  Later backends (multiprocessing,
Cython, GPU) plug into the same seam.

Mask convention
---------------
At the API boundary a *mask* is always an arbitrary-precision Python
int used as a bitset over local vertex ids ``[0, d)``; *rows* is an
opaque backend-owned handle to the ``d`` adjacency rows of one root's
induced subgraph.  A handle is only valid until the backend's next
``alloc_rows`` call (backends may reuse preallocated buffers — the
paper's Sec. V-B allocation-reuse discipline).
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

__all__ = ["BitsetKernel", "PivotChoice", "words_to_ints"]

#: ``pivot_select`` result: ``(best, best_row, best_cnt, edge_sum)``.
#: ``best`` is the chosen pivot's local id, ``best_row`` the big-int
#: mask of ``N(best) ∩ P``, ``best_cnt`` its popcount, and ``edge_sum``
#: the total popcount of every row actually scanned — the engine's
#: edge-granular work charge.
PivotChoice = tuple[int, int, int, int]


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


class BitsetKernel(abc.ABC):
    """One intersect-and-count backend.

    Instances may hold mutable scratch state (preallocated buffers), so
    each structure/engine gets its own instance via
    :func:`repro.kernels.resolve_kernel` — never share one across
    threads.
    """

    #: registry name ("bigint" / "wordarray")
    name: str = "base"

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def alloc_rows(self, d: int) -> Any:
        """Fresh (or reused) storage for ``d`` all-zero rows."""

    @abc.abstractmethod
    def set_row(self, rows: Any, i: int, bits: np.ndarray) -> None:
        """Set row ``i`` to the bitset with ``bits`` (ascending local
        ids, possibly empty) set."""

    @abc.abstractmethod
    def load_rows(self, rows: Any, words: np.ndarray) -> None:
        """Load every row at once from packed words.

        ``words`` is a ``(d, ⌈d/64⌉)`` little-endian uint64 array (at
        least one word per row): row ``i``'s local id ``j`` is bit
        ``j % 64`` of ``words[i, j // 64]`` — the layout the structures'
        vectorized induction produces, so root setup hands a whole
        subgraph over in one call.
        """

    @abc.abstractmethod
    def row_int(self, rows: Any, i: int) -> int:
        """Row ``i`` as a big-int mask (the compat / slow-path view)."""

    @abc.abstractmethod
    def num_rows(self, rows: Any) -> int:
        """``d`` of this handle."""

    # ------------------------------------------------------------------
    # fused kernels — big-int masks in, big-int masks out
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def intersect_count(self, rows: Any, i: int, mask: int) -> tuple[int, int]:
        """``(row(i) & mask, popcount)`` — the inner-loop kernel, fused
        so backends never materialize an intermediate they'd re-scan."""

    @abc.abstractmethod
    def count_rows(self, rows: Any, mask: int) -> Sequence[int]:
        """``|row(i) & mask|`` for every ``i`` — the batch
        intersect/popcount kernel the microbenchmarks time."""

    @abc.abstractmethod
    def pivot_select(self, rows: Any, P: int, pc: int) -> PivotChoice:
        """Choose the pivot maximizing ``|row(i) ∩ P|`` over ``i ∈ P``.

        Must replicate the scalar scan exactly (``pc`` is ``P``'s
        popcount, passed in because every caller already has it):

        * candidates are scanned in ascending local-id order;
        * ties keep the *first* maximum;
        * the scan stops at the first *perfect* pivot
          (``count == pc - 1``, adjacent to every other candidate);
        * ``edge_sum`` charges the popcount of each row scanned up to
          and including the stopping point — identical work accounting
          whether the backend actually short-circuits or vectorizes.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def row_accessor(self, rows: Any):
        """Fast ``local id -> big-int row`` callable over ``rows``
        (backends override when a tighter binding exists)."""
        def row(i: int, _rows=rows, _k=self) -> int:
            return _k.row_int(_rows, i)

        return row

    def rows_from_ints(self, masks: Sequence[int], d: int) -> Any:
        """Build a handle from big-int rows (tests / adapters)."""
        rows = self.alloc_rows(d)
        for i, m in enumerate(masks):
            if m:
                bits = np.flatnonzero(
                    np.frombuffer(
                        np.unpackbits(
                            np.frombuffer(
                                m.to_bytes((d + 7) >> 3, "little"), dtype=np.uint8
                            ),
                            bitorder="little",
                        ).tobytes(),
                        dtype=np.uint8,
                    )
                )
                self.set_row(rows, i, bits[bits < d])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"
