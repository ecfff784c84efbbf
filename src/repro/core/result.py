"""Result containers for the end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.counting.sct import CountResult
from repro.ordering.base import Ordering
from repro.ordering.heuristic import HeuristicDecision
from repro.parallel.simulate import PhaseTime
from repro.runtime.budget import BudgetSpent

__all__ = ["PhaseBreakdown", "CliqueCountResult"]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Modeled per-phase seconds (the Table III / Table V quantities).

    ``heuristic_seconds`` covers the Sec. III-E measurement pass;
    ``ordering_seconds`` and ``counting_seconds`` model the two main
    phases at the configured thread count.
    """

    heuristic_seconds: float
    ordering_seconds: float
    counting_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.heuristic_seconds + self.ordering_seconds + self.counting_seconds


@dataclass
class CliqueCountResult:
    """Everything a PivotScale run produces.

    Attributes
    ----------
    count / all_counts / k:
        Exact clique counts (see
        :class:`~repro.counting.sct.CountResult`).
    decision:
        The heuristic's measurements and choice (``None`` when an
        ordering was forced).
    ordering:
        The ordering actually used.
    max_out_degree:
        The DAG's maximum out-degree (the ordering-quality metric).
    counting:
        The raw counting run with counters and per-root work.
    counting_phase / phases:
        Machine-model timing detail.
    wall_seconds:
        Real (single-core Python) wall-clock of the counting pass —
        reported honestly alongside the model.
    approximate:
        ``True`` when the graceful-degradation ladder replaced part of
        the run with a sampling estimate — ``count``/``all_counts`` are
        then unbiased floats, not exact ints.
    degraded_from:
        Comma-joined record of what was degraded away from (e.g.
        ``"worker"`` after an in-process chunk recount, ``"exact"``
        after budget-exhaustion sampling, or both).
    budget_spent:
        The run controller's final meter (nodes, seconds, peak memory,
        roots completed); ``None`` for unsupervised runs.
    """

    count: int | float | None
    all_counts: list[int] | list[float] | None
    k: int | None
    decision: HeuristicDecision | None
    ordering: Ordering
    max_out_degree: int
    counting: CountResult
    counting_phase: PhaseTime
    phases: PhaseBreakdown
    wall_seconds: float
    approximate: bool = False
    degraded_from: str | None = None
    budget_spent: BudgetSpent | None = None

    @property
    def total_model_seconds(self) -> float:
        """Headline modeled end-to-end time (Fig. 12 / Table V cell)."""
        return self.phases.total_seconds
