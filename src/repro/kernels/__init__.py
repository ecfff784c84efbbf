"""Swappable bitset kernels for the counting hot path.

Two interchangeable backends implement the word-parallel
intersect-and-count operations at the heart of every engine:

* ``"bigint"`` — Python arbitrary-precision ints as bitsets (the
  reference semantics; the default);
* ``"wordarray"`` — NumPy uint64 word arrays with vectorized ``&`` and
  hardware popcount behind the fused single-row kernels.

Select a backend per run via ``PivotScaleConfig(kernel=...)``, the CLI
``--kernel`` flag, or any engine's ``kernel=`` parameter.  The
differential suite (``tests/test_differential.py``) holds the backends
to byte-identical counts and counters; ``benchmarks/bench_kernels.py``
records the throughput gap.
"""

from __future__ import annotations

from repro.errors import CountingError
from repro.kernels.base import BitsetKernel, PivotChoice
from repro.kernels.bigint import BigIntKernel
from repro.kernels.wordarray import WordArrayKernel

KERNELS: dict[str, type[BitsetKernel]] = {
    "bigint": BigIntKernel,
    "wordarray": WordArrayKernel,
}
"""Registry of kernel backends, keyed by CLI/config name."""

DEFAULT_KERNEL = "bigint"


def resolve_kernel(kernel: str | BitsetKernel | None = None) -> BitsetKernel:
    """Return a kernel *instance* for a name, instance, or ``None``.

    Backends may hold preallocated scratch buffers, so a fresh instance
    is created per call — do not share one across threads.

    ``None`` resolves to :data:`DEFAULT_KERNEL`.  An unknown name raises
    :class:`~repro.errors.CountingError` listing the registered
    backends.

    This is also the observability seam: when metrics collection is on
    (:func:`repro.obs.enabled`), the resolved backend is wrapped in a
    call-counting :class:`~repro.obs.InstrumentedKernel`; when it is
    off — the default — the raw backend is returned and the hot path
    pays nothing.
    """
    from repro import obs  # function-local: obs imports kernels.base

    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, BitsetKernel):
        return obs.instrument_kernel(kernel)
    try:
        cls = KERNELS[kernel]
    except KeyError:
        raise CountingError(
            f"unknown kernel {kernel!r}; registered backends: "
            f"{sorted(KERNELS)}"
        ) from None
    return obs.instrument_kernel(cls())


__all__ = [
    "BitsetKernel",
    "PivotChoice",
    "BigIntKernel",
    "WordArrayKernel",
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
]
