"""The resilient run controller.

One :class:`RunController` supervises one counting run.  Engines
cooperate with it at **root-vertex granularity** — the natural task
boundary of every engine in this codebase (SCT, enumeration,
per-vertex/per-edge attribution, sampling repeats):

* :meth:`tick` — once per root, before any work: fires injected
  faults, checks the wall-clock deadline;
* :meth:`charge_nodes` / :meth:`note_memory` — after a root's
  recursion, before its counts are folded in: meter the node budget
  and memory watermark.  Raising *before* the fold keeps the
  checkpointed totals consistent (a root is all-in or not-at-all);
* :meth:`complete_root` — after the fold: advances progress, buffers
  the folded record while a progress log is open, and appends the
  buffer every ``checkpoint_every`` roots;
* :meth:`guard` — wraps the whole root loop: any budget error or
  interrupt saves (when a log is open) before propagating, and a clean
  exit appends a final ``complete`` line.

The controller never aborts mid-root and never mutates engine state.
A run that checkpoints hands :meth:`begin` its :class:`Codec`; the log
(:mod:`repro.runtime.progress`) then holds the records the engine
folded, and a resume hands them back for the engine's own fold, so a
save costs what it records and not the whole run so far.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable

from repro import obs
from repro.errors import (
    BudgetExceededError,
    CountingError,
    DeadlineExceededError,
    MemoryBudgetExceededError,
    NodeBudgetExceededError,
    RunInterrupted,
)
from repro.runtime.budget import Budget, BudgetSpent
from repro.runtime.faults import FaultPlan, InjectedClock
from repro.runtime.progress import Codec, ProgressLog

__all__ = ["RunController"]


class RunController:
    """Budgets, checkpoint/resume, fault injection and degradation
    policy for one counting run.

    Parameters
    ----------
    budget:
        Limits to enforce (default: unlimited).
    checkpoint_path:
        Progress log location; ``None`` disables checkpointing.
    resume:
        Replay ``checkpoint_path`` at :meth:`begin` and hand its records
        back so the run continues where it stopped.
    degrade:
        Enable the graceful-degradation ladder: budget exhaustion lets
        drivers return an explicitly-approximate result instead of
        raising (see :mod:`repro.runtime.degrade`).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` to inject
        deterministic failures (CI / tests).
    clock:
        Monotonic-clock callable; defaults to an
        :class:`~repro.runtime.faults.InjectedClock` so clock-jump
        faults work out of the box.
    checkpoint_every:
        Autosave period in roots (saves also happen on abort and at
        completion); each save appends one line.
    """

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        checkpoint_path: str | os.PathLike[str] | None = None,
        resume: bool = False,
        degrade: bool = False,
        faults: FaultPlan | None = None,
        clock: Callable[[], float] | None = None,
        checkpoint_every: int = 64,
    ) -> None:
        if resume and checkpoint_path is None:
            raise CountingError("resume=True requires a checkpoint_path")
        if checkpoint_every < 1:
            raise CountingError("checkpoint_every must be >= 1")
        self.budget = budget if budget is not None else Budget()
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.degrade = degrade
        self.faults = faults
        self.clock = clock if clock is not None else InjectedClock()
        self.checkpoint_every = checkpoint_every
        self.spent = BudgetSpent()
        self._t0: float | None = None
        self._prior_seconds = 0.0
        self._descriptor: dict = {}
        self._log: ProgressLog | None = None
        self._encode: Callable | None = None
        self._buffer: list = []
        self._complete = False
        self._since_save = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, descriptor: dict, codec: Codec | None = None) -> list:
        """Start (or resume) a run.

        ``descriptor`` identifies the run (engine, k, structure,
        kernel, graph/ordering fingerprints).  With a ``codec`` and a
        ``checkpoint_path`` the controller opens a progress log there:
        a fresh one, or on resume the existing one, whose records it
        returns decoded as ``(key, record)`` pairs in fold order, with
        the meter restored from its last line.  Without either it logs
        nothing and returns ``[]``.  A missing log under resume, or one
        written for another descriptor, raises
        :class:`~repro.errors.CheckpointError`.
        """
        self._descriptor = dict(descriptor)
        self._t0 = self.clock()
        self._prior_seconds = 0.0
        self._log = None
        self._buffer = []
        self._complete = False
        self._since_save = 0
        if codec is None or self.checkpoint_path is None:
            return []
        self._encode = codec.encode
        if not self.resume:
            self._log = ProgressLog.create(
                self.checkpoint_path, self._descriptor, faults=self.faults
            )
            return []
        self._log, lines = ProgressLog.replay(
            self.checkpoint_path, self._descriptor, faults=self.faults
        )
        if lines:
            self.spent = BudgetSpent.from_dict(lines[-1]["spent"])
            self._prior_seconds = self.spent.seconds
            self._complete = bool(lines[-1]["complete"])
        decode = codec.decode
        return [
            (key, decode(record))
            for line in lines for key, record in line["records"]
        ]

    @contextmanager
    def guard(self):
        """Wrap the engine's root loop: checkpoint on abort, finalize
        on success."""
        try:
            yield
        except (BudgetExceededError, RunInterrupted):
            self.save()
            self.publish_metrics()
            raise
        else:
            self.save(complete=True)
            self.publish_metrics()

    # ------------------------------------------------------------------
    # per-root cooperation points
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Root-boundary check: injected faults, then the deadline."""
        if self.faults is not None:
            self.faults.tick(self.clock)
        self.check_deadline()

    def check_deadline(self) -> None:
        limit = self.budget.deadline_seconds
        if limit is not None and self.elapsed_seconds() > limit:
            raise DeadlineExceededError(
                f"deadline of {limit:g}s exceeded "
                f"({self.elapsed_seconds():.3f}s elapsed)",
                spent=self.spent_snapshot(),
            )

    def charge_nodes(self, nodes: int) -> None:
        """Meter ``nodes`` recursion nodes against the node budget."""
        self.spent.nodes += int(nodes)
        limit = self.budget.max_nodes
        if limit is not None and self.spent.nodes > limit:
            raise NodeBudgetExceededError(
                f"recursion-node budget of {limit} exhausted "
                f"({self.spent.nodes} nodes)",
                spent=self.spent_snapshot(),
            )

    def remaining_nodes(self) -> int | None:
        """Nodes left before :meth:`charge_nodes` would raise
        (``None`` = unlimited) — engines with in-recursion budget
        checks seed their local countdown from this."""
        limit = self.budget.max_nodes
        if limit is None:
            return None
        return max(0, limit - self.spent.nodes)

    def note_memory(self, peak_bytes: int) -> None:
        """Record a root's modeled footprint; enforce the watermark."""
        peak = int(peak_bytes)
        if peak > self.spent.peak_memory_bytes:
            self.spent.peak_memory_bytes = peak
        limit = self.budget.max_memory_bytes
        if limit is not None and peak > limit:
            raise MemoryBudgetExceededError(
                f"memory watermark of {limit} bytes crossed "
                f"(root footprint {peak} bytes)",
                spent=self.spent_snapshot(),
            )

    def complete_root(self, v: int, record=None) -> None:
        """Root ``v``'s ``record`` is folded in; autosave periodically."""
        self.complete_roots(1, v, record)

    def complete_roots(self, count: int, key=None, record=None) -> None:
        """A batch of ``count`` roots is folded in at once — a pool
        chunk or a shard, keyed by ``key`` — as ``record``.  The record
        is buffered for the next save only while a log is open."""
        self.spent.roots_done += int(count)
        if self._log is None:
            return
        self._buffer.append((key, record))
        self._since_save += int(count)
        if self._since_save >= self.checkpoint_every:
            self.save()

    def publish_metrics(self) -> None:
        """Mirror the budget meter into runtime gauges.

        Budget *state* stays on the controller (progress lines carry
        it); the registry only observes it, so enabling metrics cannot
        perturb budget decisions or resume identity.  Called at every
        save point and at guard exit; ``tests/test_obs.py`` pins the
        mirrored values to ``spent`` and to the engines' own
        ``engine_nodes_visited_total``.
        """
        reg = obs.get_registry()
        if not reg.enabled:
            return
        reg.gauge("runtime_nodes_spent").set(self.spent.nodes)
        reg.gauge("runtime_roots_done").set(self.spent.roots_done)
        reg.gauge("runtime_peak_memory_bytes").set(
            self.spent.peak_memory_bytes
        )

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`begin` has run — lets batch entry points
        attach to an already-running controller without re-beginning
        (which would reset the clock and re-trigger resume loads)."""
        return self._t0 is not None

    def elapsed_seconds(self) -> float:
        """Wall-clock spent, including time before an interruption."""
        if self._t0 is None:
            return self._prior_seconds
        return self._prior_seconds + (self.clock() - self._t0)

    def spent_snapshot(self) -> BudgetSpent:
        """Point-in-time copy of the meter with seconds filled in."""
        snap = self.spent.copy()
        snap.seconds = self.elapsed_seconds()
        return snap

    def save(self, *, complete: bool = False) -> None:
        """Append one line to the log now: the records buffered since
        the last line that landed, and the meter.  A no-op without an
        open log, or once the log is complete.  A line that fails to
        land (an ``OSError``) is a ``ledger_append`` degradation event:
        its records stay buffered and go out with the next line, so the
        log never skips a record."""
        if self._log is None or self._complete:
            return
        encode = self._encode
        line = {
            "records": [[key, encode(rec)] for key, rec in self._buffer],
            "spent": self.spent_snapshot().as_dict(),
            "complete": complete,
        }
        self._since_save = 0
        try:
            self._log.append(line)
        except OSError as exc:
            obs.degradation("ledger_append", error=str(exc))
            return
        self._buffer = []
        self._complete = complete
        obs.checkpoint_write(complete=complete)
        self.publish_metrics()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RunController budget={self.budget} "
            f"spent={self.spent.as_dict()} degrade={self.degrade}>"
        )
