"""Deterministic fault injection for the counting stack.

Every degradation path the run controller implements must be testable
in CI without flaky timing or real resource exhaustion.  This module
injects the failure families a traffic-serving deployment actually
sees, each at an exactly-reproducible point:

* **allocation failure** — ``MemoryError`` at the Nth controller
  operation (root boundary), converted by engines into
  :class:`~repro.errors.MemoryBudgetExceededError`;
* **clock jump** — the injectable clock leaps forward N seconds, so
  deadline handling is testable without sleeping;
* **interrupt** — :class:`~repro.errors.RunInterrupted` between roots,
  simulating an operator kill; with checkpointing enabled the
  controller saves first, so resume tests are deterministic.

Operations are counted by :meth:`FaultPlan.tick`, which the controller
calls once per root vertex — "the Nth operation" therefore means "the
Nth root boundary", a stable, engine-independent index.

The shard runtime adds an **I/O fault family** injected through
the :mod:`repro.shard.safeio` read/write layer rather than at root
boundaries:

* ``io_partial_write`` — a write is silently truncated before the
  atomic rename lands (a torn write the writer believed succeeded);
  detected later by checksum verification on read;
* ``io_corrupt_read`` — checksum verification of a read artifact
  computes a poisoned digest once, simulating bit-rot / a bad sector;
* ``io_enospc`` — the write raises ``OSError(ENOSPC)``, simulating
  disk exhaustion.

I/O faults keep their own per-direction op counters (see
:meth:`FaultPlan.take_io_fault`): ``at_op`` indexes safeio *write*
operations for the write kinds and *read* (verify) operations for
``io_corrupt_read``.  They never fire from :meth:`FaultPlan.tick`.
A spec with ``repeat=True`` keeps firing at every op from ``at_op``
on — the persistent-fault case that exhausts shard retries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import CountingError, RunInterrupted

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "InjectedClock",
    "ManualClock",
    "FAULT_KINDS",
    "IO_KINDS",
    "IO_READ_KINDS",
    "IO_WRITE_KINDS",
]

FAULT_KINDS = (
    "memory",
    "clock_jump",
    "interrupt",
    "io_partial_write",
    "io_corrupt_read",
    "io_enospc",
)

#: I/O fault kinds scheduled against the safeio *write* op counter.
IO_WRITE_KINDS = ("io_partial_write", "io_enospc")
#: I/O fault kinds scheduled against the safeio *read* op counter.
IO_READ_KINDS = ("io_corrupt_read",)
IO_KINDS = IO_WRITE_KINDS + IO_READ_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at_op:
        1-based controller-operation index (root boundary) at which the
        fault fires.
    jump_seconds:
        For ``clock_jump``: how far the clock leaps forward.
    repeat:
        For the I/O kinds: fire at *every* op from ``at_op`` on instead
        of exactly once (a persistent fault, e.g. a disk that stays
        full).  Ignored for the root-boundary kinds.
    """

    kind: str
    at_op: int
    jump_seconds: float = 0.0
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise CountingError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_op < 1:
            raise CountingError("at_op is 1-based and must be >= 1")
        if self.kind == "clock_jump" and self.jump_seconds <= 0:
            raise CountingError("clock_jump needs jump_seconds > 0")
        if self.repeat and self.kind not in IO_KINDS:
            raise CountingError("repeat=True is only meaningful for I/O faults")


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` firings.

    The plan owns the operation counter; each :meth:`tick` advances it
    and fires every spec scheduled for that index.  A spec fires at
    most once, so a resumed run (whose controller starts a fresh op
    counter) re-injects only the faults scheduled for ops it actually
    reaches again — pass a fresh plan per attempt for full control.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = tuple(specs)
        self.ops = 0
        self.io_writes = 0
        self.io_reads = 0
        self._fired: set[int] = set()

    def take_io_fault(self, direction: str) -> "FaultSpec | None":
        """Advance an I/O op counter; return the due spec, if any.

        ``direction`` is ``"write"`` (atomic writes / appends) or
        ``"read"`` (checksum verifications).  Called by
        :mod:`repro.shard.safeio` once per operation; unlike
        :meth:`tick` the fault is *returned*, not raised — safeio owns
        the failure semantics (truncate, poison, or raise ``ENOSPC``).
        At most one spec is returned per op; a ``repeat=True`` spec
        stays armed and fires on every subsequent op too.
        """
        if direction == "write":
            kinds = IO_WRITE_KINDS
            self.io_writes += 1
            ops = self.io_writes
        elif direction == "read":
            kinds = IO_READ_KINDS
            self.io_reads += 1
            ops = self.io_reads
        else:  # pragma: no cover - programming error
            raise CountingError(f"unknown I/O direction {direction!r}")
        for i, spec in enumerate(self.specs):
            if spec.kind not in kinds:
                continue
            if spec.repeat:
                if ops >= spec.at_op:
                    self._fired.add(i)
                    return spec
                continue
            if i not in self._fired and spec.at_op == ops:
                self._fired.add(i)
                return spec
        return None

    def tick(self, clock: "InjectedClock | ManualClock | None" = None) -> None:
        """Advance the op counter and fire any due faults."""
        self.ops += 1
        for i, spec in enumerate(self.specs):
            if spec.kind in IO_KINDS:
                continue  # fired via take_io_fault, never at root ticks
            if i in self._fired or spec.at_op != self.ops:
                continue
            self._fired.add(i)
            if spec.kind == "memory":
                raise MemoryError(f"injected allocation failure at op {self.ops}")
            if spec.kind == "interrupt":
                raise RunInterrupted(f"injected interrupt at op {self.ops}")
            # clock_jump: silently advance the injectable clock; the
            # controller's next deadline check observes the leap.
            if clock is not None:
                clock.advance(spec.jump_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan ops={self.ops} specs={list(self.specs)!r}>"


class InjectedClock:
    """A monotonic clock with a controllable forward offset.

    The controller reads time exclusively through its clock callable,
    so a ``clock_jump`` fault (or a test calling :meth:`advance`)
    deterministically triggers deadline handling.
    """

    def __init__(self, base=time.monotonic) -> None:
        self._base = base
        self._offset = 0.0

    def advance(self, seconds: float) -> None:
        self._offset += float(seconds)

    def __call__(self) -> float:
        return self._base() + self._offset


class ManualClock:
    """A fully deterministic clock that only moves when told to.

    Used by tests that need exact elapsed-seconds accounting (and by
    checkpoint tests that must not depend on host speed).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def advance(self, seconds: float) -> None:
        self._now += float(seconds)

    def __call__(self) -> float:
        return self._now
