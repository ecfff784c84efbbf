"""The bitset kernel of the counting hot path.

One backend, ``"bigint"`` (:class:`BigIntKernel`), implements the
intersect-and-count operations at the heart of every engine with Python
big-int masks: ``&`` and ``int.bit_count()`` already run word-parallel
in CPython's C layer.  Engines take a ``kernel=`` parameter that accepts
``None``, ``"bigint"`` or a :class:`BitsetKernel` instance — the seam
through which :class:`~repro.obs.InstrumentedKernel` counts calls and
tests wrap the backend.  Why the NumPy word-array backend was removed
is recorded in ``docs/kernels.md``.
"""

from __future__ import annotations

from repro.errors import CountingError
from repro.kernels.base import BitsetKernel, PivotChoice
from repro.kernels.bigint import BigIntKernel


def kernel_name(kernel: str | BitsetKernel | None = None) -> str:
    """The backend name ``kernel`` resolves to, without building it.

    ``None`` and ``"bigint"`` name the one backend, an instance names
    itself, and any other name raises
    :class:`~repro.errors.CountingError`.
    """
    if isinstance(kernel, BitsetKernel):
        return kernel.name
    if kernel is None or kernel == BigIntKernel.name:
        return BigIntKernel.name
    raise CountingError(
        f"unknown kernel {kernel!r}; the only backend is "
        f"{BigIntKernel.name!r}"
    )


def resolve_kernel(kernel: str | BitsetKernel | None = None) -> BitsetKernel:
    """Return a kernel *instance* for a name, instance, or ``None``.

    A name builds a fresh :class:`BigIntKernel`; an instance is used
    as given.  This is also the observability seam: when metrics
    collection is on (:func:`repro.obs.enabled`), the kernel is wrapped
    in a call-counting :class:`~repro.obs.InstrumentedKernel`; when it
    is off — the default — the raw backend is returned and the hot path
    pays nothing.
    """
    from repro import obs  # function-local: obs imports kernels.base

    if not isinstance(kernel, BitsetKernel):
        kernel_name(kernel)
        kernel = BigIntKernel()
    return obs.instrument_kernel(kernel)


__all__ = [
    "BitsetKernel",
    "PivotChoice",
    "BigIntKernel",
    "kernel_name",
    "resolve_kernel",
]
