"""End-to-end configuration for the PivotScale pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.errors import CountingError, ParallelModelError
from repro.ordering.heuristic import HeuristicConfig
from repro.parallel.machine import EPYC_9554, MachineSpec
from repro.parallel.sched import DynamicScheduler, Scheduler
from repro.runtime.budget import Budget
from repro.runtime.controller import RunController

__all__ = ["PivotScaleConfig"]

_VALID_ORDERINGS = {
    None,
    "heuristic",
    "core",
    "degree",
    "approx_core",
    "kcore",
    "centrality",
}


@dataclass
class PivotScaleConfig:
    """Knobs of the full pipeline, defaulting to the paper's choices.

    Attributes
    ----------
    structure:
        Subgraph structure; ``"remap"`` is PivotScale's default
        (Sec. IV), ``"dense"``/``"sparse"`` reproduce the ablations.
    kernel:
        The bitset-kernel backend, ``"bigint"`` — a class constant,
        not a constructor argument: there is one backend, and callers
        that pass ``kernel=cfg.kernel`` on to the engines keep working.
    ordering:
        ``"heuristic"`` (default) runs the Sec. III-E selector; a
        concrete name forces that ordering (``"core"``, ``"degree"``,
        ``"approx_core"``, ``"kcore"``, ``"centrality"``).
    threads:
        Modeled thread count for phase times (the paper uses 64).
    processes:
        Real worker-process count for the counting phase.  ``None``
        (default) and ``1`` run serially in-process; ``>= 2`` routes
        counting through the process-parallel runtime
        (:mod:`repro.parallel.pool`) — exact, bit-identical counts,
        shared-memory graphs, dynamic chunk scheduling.  Orthogonal to
        ``threads``, which only drives the *modeled* phase times.
    par_chunks:
        Chunks per process for the parallel runtime's dynamic
        scheduler (oversubscription factor; more, smaller chunks
        improve load balance on skewed graphs).
    machine:
        Machine model for phase times.
    scheduler:
        Task scheduler for the counting phase model.
    heuristic:
        Thresholds + eps for the selector / core approximation.
    effective_num_vertices:
        Paper-scale ``|V|`` when counting a scaled-down analog
        (see :mod:`repro.datasets`); ``None`` uses the graph's own.
    deadline_seconds / max_nodes / max_memory_bytes:
        Resilience budgets (``None`` = unlimited): wall-clock deadline,
        recursion-node cap, and per-root memory watermark enforced by
        the :class:`~repro.runtime.RunController`.
    checkpoint_path / resume:
        Progress log location (:mod:`repro.runtime.progress`) and
        whether to resume from it; a resumed run is bit-identical to an
        uninterrupted one.  Refused together with ``shard_mb``.
    degrade:
        Enable the graceful-degradation ladder (budget-exhaustion root
        sampling, worker and shard recounts, member spill) instead of
        hard failure.
    checkpoint_every:
        Autosave period in completed roots.
    shard_mb:
        Out-of-core watermark in MiB.  When set, counting runs through
        the crash-safe shard runtime (:mod:`repro.shard`): the root
        range is cut into vertex shards whose estimated CSR-slice
        footprint fits under the watermark, each shard streams from
        mmap-backed spill files under ``spill_dir``, and completed
        shards are recorded in a ledger so a killed run resumes
        bit-identically (``resume=True`` works *without* a
        ``checkpoint_path`` in this mode — the ledger is the run's
        progress log).  Counts are bit-identical to the in-memory path.
    spill_dir:
        Directory for shard spill files and the ledger; required when
        ``shard_mb`` is set.
    shard_retries:
        Bounded retries per failed shard (respill + recount with
        seeded exponential backoff) before the degradation ladder
        engages (default 3).
    """

    kernel: ClassVar[str] = "bigint"

    structure: str = "remap"
    ordering: str | None = "heuristic"
    threads: int = 64
    processes: int | None = None
    par_chunks: int = 4
    machine: MachineSpec = EPYC_9554
    scheduler: Scheduler = field(default_factory=DynamicScheduler)
    heuristic: HeuristicConfig = field(default_factory=HeuristicConfig)
    effective_num_vertices: float | None = None
    deadline_seconds: float | None = None
    max_nodes: int | None = None
    max_memory_bytes: int | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    degrade: bool = False
    checkpoint_every: int = 64
    shard_mb: float | None = None
    spill_dir: str | None = None
    shard_retries: int = 3

    def __post_init__(self) -> None:
        if self.structure not in ("dense", "sparse", "remap"):
            raise CountingError(f"unknown structure {self.structure!r}")
        if self.ordering not in _VALID_ORDERINGS:
            raise CountingError(f"unknown ordering {self.ordering!r}")
        if self.threads < 1:
            raise ParallelModelError("threads must be >= 1")
        if self.processes is not None and self.processes < 1:
            raise ParallelModelError("processes must be >= 1")
        if self.par_chunks < 1:
            raise ParallelModelError("par_chunks must be >= 1")
        # Budget() validates the limits; build one eagerly so a bad
        # config fails at construction, not mid-run.
        self.budget = Budget(
            deadline_seconds=self.deadline_seconds,
            max_nodes=self.max_nodes,
            max_memory_bytes=self.max_memory_bytes,
        )
        if (
            self.resume
            and self.checkpoint_path is None
            and self.shard_mb is None
        ):
            raise CountingError(
                "resume=True requires a checkpoint_path (or shard_mb, "
                "where the shard ledger is the resume mechanism)"
            )
        if self.shard_mb is not None and self.shard_mb <= 0:
            raise CountingError("shard_mb must be > 0")
        if self.shard_mb is not None and self.spill_dir is None:
            raise CountingError("shard_mb requires a spill_dir")
        if self.shard_mb is not None and self.checkpoint_path is not None:
            raise CountingError(
                "checkpoint_path does not apply with shard_mb: the ledger "
                "under spill_dir is a sharded run's progress log"
            )
        if self.shard_retries < 0:
            raise CountingError("shard_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise CountingError("checkpoint_every must be >= 1")

    @property
    def wants_controller(self) -> bool:
        """Whether any resilience knob deviates from the defaults."""
        return (
            not self.budget.unlimited
            or self.checkpoint_path is not None
            or self.resume
            or self.degrade
        )

    def make_controller(self, *, faults=None, clock=None) -> RunController | None:
        """Build the run controller these knobs describe.

        Returns ``None`` when every resilience knob is at its default
        and no faults are injected, so the unsupervised fast path stays
        untouched.
        """
        if not self.wants_controller and faults is None:
            return None
        return RunController(
            self.budget,
            checkpoint_path=self.checkpoint_path,
            # In shard mode resume is set without a checkpoint_path (the
            # shard ledger is the resume mechanism); the controller
            # itself only resumes its own progress log.
            resume=self.resume and self.checkpoint_path is not None,
            degrade=self.degrade,
            faults=faults,
            clock=clock,
            checkpoint_every=self.checkpoint_every,
        )
