"""The bitset-kernel contract — the hot-path seam of the counting phase.

Every counting engine (SCT, enumeration, per-vertex / per-edge
attribution) spends essentially all of its time doing two things inside
the pivot recursion: intersecting an adjacency row with the candidate
set, and popcounting the result ("The Power of Pivoting" and Arb-Count
both report the intersect-and-count kernel as the dominant cost).  This
module names that kernel's operations:

* a **backend** owns the storage of one root's local adjacency rows and
  implements the fused operations over them;
* the recursion keeps its control flow — and its *masks* — as exact
  Python big-ints;
* ``pivot_select`` fixes the scan's tie-break, early exit and per-row
  work charge, so :class:`~repro.counting.counters.Counters` are a
  function of the induced subgraph alone.

The one backend is :class:`~repro.kernels.bigint.BigIntKernel`; the
contract stays so :class:`~repro.obs.InstrumentedKernel` and test
doubles can stand in for it through any engine's ``kernel=``.

Mask convention
---------------
At the API boundary a *mask* is always an arbitrary-precision Python
int used as a bitset over local vertex ids ``[0, d)``; *rows* is an
opaque backend-owned handle to the ``d`` adjacency rows of one root's
induced subgraph.  A handle is only valid until the backend's next
``alloc_rows`` call.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

__all__ = ["BitsetKernel", "PivotChoice"]

#: ``pivot_select`` result: ``(best, best_row, best_cnt, edge_sum)``.
#: ``best`` is the chosen pivot's local id, ``best_row`` the big-int
#: mask of ``N(best) ∩ P``, ``best_cnt`` its popcount, and ``edge_sum``
#: the total popcount of every row actually scanned — the engine's
#: edge-granular work charge.
PivotChoice = tuple[int, int, int, int]


class BitsetKernel(abc.ABC):
    """One intersect-and-count backend.

    Each structure/engine gets its own instance via
    :func:`repro.kernels.resolve_kernel`.
    """

    #: backend name, recorded in descriptors, results and metric labels
    name: str = "base"

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def alloc_rows(self, d: int) -> Any:
        """Fresh (or reused) storage for ``d`` all-zero rows."""

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

    # ------------------------------------------------------------------
    # fused kernels — big-int masks in, big-int masks out
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def intersect_count(self, rows: Any, i: int, mask: int) -> tuple[int, int]:
        """``(row(i) & mask, popcount)`` — the inner-loop kernel."""

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
          and including the stopping point.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def row_accessor(self, rows: Any):
        """Fast ``local id -> big-int row`` callable over ``rows``
        (a backend overrides it when a tighter binding exists)."""
        def row(i: int, _rows=rows, _k=self) -> int:
            return _k.row_int(_rows, i)

        return row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"
