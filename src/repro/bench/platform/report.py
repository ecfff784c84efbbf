"""Lazily-computed experiment report over the benchmark run history.

Fuzzbench's ``experiment_results.py`` idiom: the report object is a
bag of cached properties/methods over the stored history, so building
one is free — each history file is read **at most once** per report,
and only when something actually asks a question that needs it.

The report answers three kinds of question:

* **time series** — how a metric's median moved across stored runs;
* **pairwise comparison** — run A vs run B, per metric, with the full
  :class:`~repro.bench.platform.stat_tests.RegressionVerdict`;
* **regression gate** — the newest runs vs the *promoted baseline*
  (:mod:`repro.bench.platform.baseline`), pooling samples across the
  trailing window so CI's repeated smoke runs gain statistical power.
  Only runs recorded under the baseline's ``config`` take part: a
  full-mode run times a different workload than a smoke-mode baseline.

Cross-machine honesty: timings from a different machine fingerprint
are never silently comparable.  A comparison whose baseline was
measured elsewhere is reported as *advisory* (``machine_match=False``)
and does not fail the strict gate unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.bench.platform.baseline import BaselineRegistry
from repro.bench.platform.stat_tests import RegressionVerdict, detect_regression
from repro.bench.platform.store import RunRecord, RunStore

__all__ = ["ExperimentReport", "BenchComparison"]

#: Fingerprint keys that must agree for timings to be comparable.
_MACHINE_KEYS = ("cpu_count", "platform", "machine", "python", "numpy")


def _same_machine(a: dict, b: dict) -> bool:
    return all(a.get(k) == b.get(k) for k in _MACHINE_KEYS)


def _config_diff(a: dict, b: dict) -> list[str]:
    """The config keys on which ``a`` and ``b`` disagree."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


@dataclass(frozen=True)
class BenchComparison:
    """Baseline-vs-current verdicts for one bench."""

    bench: str
    baseline_id: str | None
    current_ids: tuple[str, ...]
    verdicts: dict[str, RegressionVerdict] = field(default_factory=dict)
    machine_match: bool = True
    note: str = ""

    @property
    def regressed(self) -> bool:
        """Confirmed regression on at least one metric (only ever true
        when the machines match — cross-machine verdicts are advisory)."""
        return self.machine_match and any(
            v.regressed for v in self.verdicts.values()
        )

    @property
    def advisory_regressions(self) -> list[str]:
        return [m for m, v in self.verdicts.items() if v.regressed]

    def describe_lines(self) -> list[str]:
        lines = [f"[{self.bench}] baseline={self.baseline_id or '-'} "
                 f"current={len(self.current_ids)} run(s)"
                 + ("" if self.machine_match
                    else "  (ADVISORY: baseline from a different machine)")]
        if self.note:
            lines.append(f"  {self.note}")
        for metric in sorted(self.verdicts):
            lines.append("  " + self.verdicts[metric].describe())
        return lines


class ExperimentReport:
    """The main interface for questions about the stored history.

    Every result is computed lazily and memoized, so constructing a
    report costs nothing and a caller that only compares one bench only
    reads that bench's history file — once.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        baselines: BaselineRegistry | None = None,
        alpha: float = 0.05,
        min_effect: float = 1.10,
        window: int = 3,
        n_boot: int = 2000,
        seed: int = 0,
    ) -> None:
        self._store = store
        self._baselines = baselines or BaselineRegistry.for_store(store)
        self.alpha = alpha
        self.min_effect = min_effect
        self.window = window
        self.n_boot = n_boot
        self.seed = seed
        self._history: dict[str, tuple[RunRecord, ...]] = {}

    # ------------------------------------------------------------------
    # lazy history access
    # ------------------------------------------------------------------
    @cached_property
    def benches(self) -> tuple[str, ...]:
        return tuple(self._store.benches())

    def records(self, bench: str) -> tuple[RunRecord, ...]:
        """All stored records for ``bench``, oldest first (one file
        read per bench per report, memoized)."""
        if bench not in self._history:
            self._history[bench] = tuple(self._store.read(bench))
        return self._history[bench]

    @cached_property
    def baseline_ids(self) -> dict[str, str]:
        """Promoted baseline run id per bench (one registry read)."""
        return {
            bench: entry["run_id"]
            for bench, entry in self._baselines.load().items()
        }

    # ------------------------------------------------------------------
    # questions
    # ------------------------------------------------------------------
    def metrics(self, bench: str) -> tuple[str, ...]:
        """Sample metrics ever recorded for ``bench``."""
        names: set[str] = set()
        for rec in self.records(bench):
            names.update(rec.samples)
        return tuple(sorted(names))

    def time_series(
        self, bench: str, metric: str
    ) -> list[tuple[str, float, str | None, float]]:
        """``(run_id, timestamp, git_hash, median_seconds)`` per stored
        record that carries ``metric``, oldest first."""
        out = []
        for rec in self.records(bench):
            if metric in rec.samples:
                out.append((
                    rec.run_id, rec.timestamp, rec.git_hash,
                    float(np.median(rec.samples[metric])),
                ))
        return out

    def compare_runs(
        self, bench: str, baseline_id: str, current_id: str
    ) -> dict[str, RegressionVerdict]:
        """Pairwise run comparison over every shared sample metric."""
        by_id = {rec.run_id: rec for rec in self.records(bench)}
        try:
            base, cur = by_id[baseline_id], by_id[current_id]
        except KeyError as exc:
            raise KeyError(
                f"run {exc.args[0]!r} not in the {bench!r} history"
            ) from None
        shared = sorted(set(base.samples) & set(cur.samples))
        return {
            m: detect_regression(
                base.samples[m], cur.samples[m], metric=m,
                alpha=self.alpha, min_effect=self.min_effect,
                n_boot=self.n_boot, seed=self.seed,
            )
            for m in shared
        }

    def _baseline_pool(
        self, bench: str, baseline: RunRecord
    ) -> tuple[dict[str, list[float]], set[str]]:
        """The baseline's samples, enriched with stored runs from the
        same commit, config and machine taken *no later than* the
        baseline itself (repeated promote-time runs pool their samples
        for statistical power; runs after promotion stay "current", so
        a same-commit re-run can still be flagged)."""
        pool: dict[str, list[float]] = {
            m: list(v) for m, v in baseline.samples.items()
        }
        ids = {baseline.run_id}
        for rec in self.records(bench):
            if rec.run_id in ids or rec.timestamp > baseline.timestamp:
                continue
            if rec.git_hash is not None \
                    and rec.git_hash == baseline.git_hash \
                    and rec.config == baseline.config \
                    and _same_machine(rec.machine, baseline.machine):
                ids.add(rec.run_id)
                for m, v in rec.samples.items():
                    pool.setdefault(m, []).extend(v)
        return pool, ids

    def regressions(self, bench: str) -> BenchComparison:
        """The gate: newest ``window`` runs recorded under the promoted
        baseline's config vs that baseline."""
        records = self.records(bench)
        if not records:
            return BenchComparison(bench, None, (), note="no stored runs")
        baseline_id = self.baseline_ids.get(bench)
        if baseline_id is None:
            return BenchComparison(
                bench, None, tuple(r.run_id for r in records[-self.window:]),
                note="no promoted baseline — recording only",
            )
        baseline = next(
            (r for r in records if r.run_id == baseline_id), None
        )
        if baseline is None:
            return BenchComparison(
                bench, baseline_id, (),
                note=f"promoted baseline {baseline_id!r} is missing from "
                     f"the history",
            )
        base_pool, base_ids = self._baseline_pool(bench, baseline)
        newer = [r for r in records if r.run_id not in base_ids]
        if not newer:
            return BenchComparison(
                bench, baseline_id, (), machine_match=True,
                note="no runs newer than the baseline pool",
            )
        current = [r for r in newer if r.config == baseline.config]
        current = current[-self.window:]
        if not current:
            differ = _config_diff(newer[-1].config, baseline.config)
            return BenchComparison(
                bench, baseline_id, (), machine_match=True,
                note=f"no runs under the baseline's config (config "
                     f"differs in: {', '.join(differ)})",
            )
        machine_match = all(
            _same_machine(r.machine, baseline.machine) for r in current
        )
        cur_pool: dict[str, list[float]] = {}
        for rec in current:
            for m, v in rec.samples.items():
                cur_pool.setdefault(m, []).extend(v)
        shared = sorted(set(base_pool) & set(cur_pool))
        verdicts = {
            m: detect_regression(
                base_pool[m], cur_pool[m], metric=m,
                alpha=self.alpha, min_effect=self.min_effect,
                n_boot=self.n_boot, seed=self.seed,
            )
            for m in shared
        }
        return BenchComparison(
            bench, baseline_id, tuple(r.run_id for r in current),
            verdicts=verdicts, machine_match=machine_match,
        )

    @cached_property
    def all_regressions(self) -> dict[str, BenchComparison]:
        """The gate verdict for every bench with stored history."""
        return {bench: self.regressions(bench) for bench in self.benches}

    def summary_lines(self) -> list[str]:
        lines: list[str] = []
        for bench in self.benches:
            lines.extend(self.all_regressions[bench].describe_lines())
        if not lines:
            lines.append(f"(run store {self._store.root} is empty)")
        return lines
