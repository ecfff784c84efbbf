"""Kernel-call instrumentation — exact fused-op counts.

Wraps a :class:`~repro.kernels.BitsetKernel` and counts every API-level
call (``intersect_count``, ``pivot_select`` and the row-storage ops
``alloc_rows`` / ``load_rows``) into
``kernel_calls_total{kernel=..., op=...}`` registry counters.  Counts
are taken at the kernel *contract* boundary, so they follow the
engines' control flow alone, which the invariant suite
(``tests/test_obs.py``) pins.

The wrapper exists only while observability is enabled:
:func:`repro.kernels.resolve_kernel` consults
:func:`repro.obs.instrument_kernel` and returns the raw backend when
metrics are off, so the disabled hot path pays nothing.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice

__all__ = ["InstrumentedKernel"]


class InstrumentedKernel(BitsetKernel):
    """Count every kernel API call into a metrics registry.

    ``name`` mirrors the wrapped backend, so descriptors and result
    fields cannot tell an instrumented kernel from a bare one.
    """

    def __init__(self, inner: BitsetKernel, registry) -> None:
        self.inner = inner
        self.name = inner.name
        c = registry.counter
        k = inner.name
        self._c_alloc = c("kernel_calls_total", kernel=k, op="alloc_rows")
        self._c_load = c("kernel_calls_total", kernel=k, op="load_rows")
        self._c_ic = c("kernel_calls_total", kernel=k, op="intersect_count")
        self._c_ps = c("kernel_calls_total", kernel=k, op="pivot_select")

    # ---------------------------------------------------------- storage
    def alloc_rows(self, d: int) -> Any:
        self._c_alloc.inc()
        return self.inner.alloc_rows(d)

    def load_rows(self, rows: Any, words: np.ndarray) -> None:
        self._c_load.inc()
        self.inner.load_rows(rows, words)

    def row_int(self, rows: Any, i: int) -> int:
        return self.inner.row_int(rows, i)

    def row_accessor(self, rows: Any):
        return self.inner.row_accessor(rows)

    # ----------------------------------------------------- fused kernels
    def intersect_count(self, rows: Any, i: int, mask: int) -> tuple[int, int]:
        self._c_ic.inc()
        return self.inner.intersect_count(rows, i, mask)

    def pivot_select(self, rows: Any, P: int, pc: int) -> PivotChoice:
        self._c_ps.inc()
        return self.inner.pivot_select(rows, P, pc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InstrumentedKernel {self.inner!r}>"
