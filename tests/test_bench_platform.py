"""Benchmark run-store platform: store, stats, report, baseline, CLI.

The acceptance criterion from the issue is exercised directly in
:class:`TestDetectRegression`: across >= 20 synthetic trials the
statistical layer flags a planted 2x slowdown every time and never
flags i.i.d. noise at the report-layer defaults.
"""

import json

import numpy as np
import pytest

from repro.bench.platform.baseline import BaselineRegistry
from repro.bench.platform.report import ExperimentReport
from repro.bench.platform.stat_tests import (
    MIN_SAMPLES,
    a12,
    bootstrap_median_ratio_ci,
    detect_regression,
    mann_whitney_u,
    rankdata,
)
from repro.bench.platform.store import (
    SCHEMA_VERSION,
    RunRecord,
    RunStore,
    machine_fingerprint,
    new_run_id,
)
from repro.cli import main as cli_main
from repro.errors import StoreFormatError


def make_record(bench="kernels", *, seed=7, samples=None, run_id=None,
                timestamp=1000.0, git_hash="abc123", machine=None,
                metrics=None, smoke=True):
    return RunRecord(
        bench=bench,
        run_id=run_id or new_run_id(bench),
        timestamp=timestamp,
        config={"seed": seed, "smoke": smoke},
        samples=samples or {"wall_s": [0.01, 0.011, 0.012]},
        metrics=metrics or {},
        gate={"pass": True},
        git_hash=git_hash,
        machine=machine or machine_fingerprint(),
    )


# ----------------------------------------------------------------------
# store round-trip + schema discipline
# ----------------------------------------------------------------------
class TestRunStore:
    def test_append_read_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        rec = make_record()
        path = store.append(rec)
        assert path == tmp_path / "runs" / "kernels.jsonl"
        (got,) = store.read("kernels")
        assert got == rec
        assert got.seed == 7
        assert got.schema == SCHEMA_VERSION

    def test_append_preserves_order(self, tmp_path):
        store = RunStore(tmp_path)
        ids = []
        for ts in (1.0, 2.0, 3.0):
            rec = make_record(timestamp=ts)
            ids.append(rec.run_id)
            store.append(rec)
        assert [r.run_id for r in store.read("kernels")] == ids
        assert store.latest("kernels").run_id == ids[-1]
        assert store.get("kernels", ids[0]).run_id == ids[0]

    def test_benches_lists_history_files(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.benches() == []
        store.append(make_record("obs"))
        store.append(make_record("forest"))
        assert store.benches() == ["forest", "obs"]

    def test_missing_history_reads_empty(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.read("kernels") == []
        assert store.latest("kernels") is None

    def test_rejects_pathy_bench_names(self, tmp_path):
        store = RunStore(tmp_path)
        for bad in ("", "a/b", "../evil", ".hidden"):
            with pytest.raises(StoreFormatError):
                store.path_for(bad)

    def test_v0_schema_upgrades_on_read(self, tmp_path):
        # Pre-release records stored samples under "timings" and had
        # no machine fingerprint; the reader upgrades them in place.
        store = RunStore(tmp_path)
        v0 = {
            "schema": 0,
            "bench": "kernels",
            "run_id": "kernels-0-old",
            "timestamp": 10.0,
            "config": {"seed": 3},
            "timings": {"wall_s": [0.5, 0.6, 0.7]},
        }
        path = store.path_for("kernels")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(v0) + "\n")
        (rec,) = store.read("kernels")
        assert rec.schema == SCHEMA_VERSION
        assert rec.samples == {"wall_s": [0.5, 0.6, 0.7]}
        assert rec.machine == {}

    def test_newer_schema_is_a_format_error(self, tmp_path):
        store = RunStore(tmp_path)
        rec = make_record()
        obj = rec.to_json()
        obj["schema"] = 99
        path = store.path_for("kernels")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(StoreFormatError, match="newer than this reader"):
            store.read("kernels")

    def test_corrupt_line_names_file_and_line(self, tmp_path):
        # GraphFormatError discipline: the parse site, not a KeyError
        # three layers down.
        store = RunStore(tmp_path)
        store.append(make_record())
        path = store.path_for("kernels")
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(StoreFormatError) as exc:
            store.read("kernels")
        assert "line 2" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_missing_field_names_file_and_line(self, tmp_path):
        store = RunStore(tmp_path)
        obj = make_record().to_json()
        del obj["samples"]
        path = store.path_for("kernels")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(StoreFormatError, match=r"line 1.*samples"):
            store.read("kernels")

    def test_refuses_record_without_seed(self, tmp_path):
        # Determinism contract: no seed, no stored measurement.
        store = RunStore(tmp_path)
        rec = RunRecord(
            bench="kernels", run_id="x", timestamp=1.0,
            config={"smoke": True},
            samples={"wall_s": [0.1, 0.2, 0.3]},
        )
        with pytest.raises(StoreFormatError, match="seed"):
            store.append(rec)

    def test_refuses_non_finite_samples(self, tmp_path):
        store = RunStore(tmp_path)
        rec = make_record(samples={"wall_s": [0.1, float("nan")]})
        with pytest.raises(StoreFormatError, match="non-finite"):
            store.append(rec)
        rec = make_record(samples={"wall_s": []})
        with pytest.raises(StoreFormatError, match="non-empty"):
            store.append(rec)

    def test_run_ids_are_unique(self):
        ids = {new_run_id("kernels") for _ in range(64)}
        assert len(ids) == 64
        assert all(i.startswith("kernels-") for i in ids)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
class TestStatPrimitives:
    def test_rankdata_ties_share_average_rank(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]).tolist() == \
            [1.0, 2.5, 2.5, 4.0]

    def test_mann_whitney_matches_published_example(self):
        # Cross-checked against scipy.stats.mannwhitneyu
        # (method="asymptotic", use_continuity=True).
        a = [19, 22, 16, 29, 24]
        b = [20, 11, 17, 12]
        res = mann_whitney_u(a, b, alternative="two-sided")
        assert res.u == pytest.approx(17.0)
        assert res.p_value == pytest.approx(0.1113, abs=1e-3)

    def test_mann_whitney_one_sided_detects_shift(self):
        slow = [2.0, 2.1, 2.2, 1.9, 2.05, 2.15]
        fast = [1.0, 1.1, 1.2, 0.9, 1.05, 1.15]
        assert mann_whitney_u(slow, fast,
                              alternative="greater").p_value < 0.01
        assert mann_whitney_u(fast, slow,
                              alternative="greater").p_value > 0.95

    def test_mann_whitney_identical_samples_is_inconclusive(self):
        res = mann_whitney_u([1.0] * 5, [1.0] * 5, alternative="greater")
        assert res.p_value == 1.0

    def test_a12_bounds_and_symmetry(self):
        hi, lo = [2.0, 3.0, 4.0], [0.5, 1.0, 1.5]
        assert a12(hi, lo) == 1.0
        assert a12(lo, hi) == 0.0
        assert a12(hi, hi) == 0.5

    def test_bootstrap_is_deterministic_and_brackets_ratio(self):
        rng = np.random.default_rng(1)
        base = (1.0 + 0.03 * rng.standard_normal(10)).tolist()
        cur = (2.0 + 0.06 * rng.standard_normal(10)).tolist()
        ci1 = bootstrap_median_ratio_ci(base, cur, seed=5)
        ci2 = bootstrap_median_ratio_ci(base, cur, seed=5)
        assert ci1 == ci2
        lo, hi = ci1
        assert lo < 2.0 < hi or (1.8 < lo and hi < 2.2)
        assert lo > 1.5


class TestDetectRegression:
    """The issue's acceptance criterion, at the report-layer defaults
    (alpha=0.05, min_effect=1.10) over >= 20 deterministic trials."""

    ALPHA = 0.05
    MIN_EFFECT = 1.10
    TRIALS = 25
    N = 9         # samples per side — a CI window of 3 runs x 3 repeats
    NOISE = 0.05  # 5% relative jitter

    def _samples(self, rng, scale):
        return (scale * (1.0 + self.NOISE * rng.standard_normal(self.N))) \
            .clip(min=1e-9).tolist()

    def test_flags_planted_2x_slowdown_every_trial(self):
        for trial in range(self.TRIALS):
            rng = np.random.default_rng(1000 + trial)
            base = self._samples(rng, 1.0)
            cur = self._samples(rng, 2.0)
            v = detect_regression(base, cur, alpha=self.ALPHA,
                                  min_effect=self.MIN_EFFECT, seed=trial)
            assert v.regressed, f"missed planted 2x in trial {trial}: " \
                                f"{v.describe()}"
            assert v.median_ratio > 1.5
            assert v.effect_a12 > 0.9

    def test_no_false_positive_on_iid_noise(self):
        for trial in range(self.TRIALS):
            rng = np.random.default_rng(5000 + trial)
            base = self._samples(rng, 1.0)
            cur = self._samples(rng, 1.0)
            v = detect_regression(base, cur, alpha=self.ALPHA,
                                  min_effect=self.MIN_EFFECT, seed=trial)
            assert not v.regressed, f"false positive in trial {trial}: " \
                                    f"{v.describe()}"

    def test_speedup_is_never_a_regression(self):
        rng = np.random.default_rng(0)
        base = self._samples(rng, 2.0)
        cur = self._samples(rng, 1.0)
        v = detect_regression(base, cur)
        assert not v.regressed
        assert v.median_ratio < 0.7

    def test_insufficient_samples_never_flags(self):
        few = [1.0] * (MIN_SAMPLES - 1)
        v = detect_regression(few, [99.0, 99.0, 99.0])
        assert not v.regressed
        assert v.median_ratio is None
        assert "insufficient" in v.note
        assert "insufficient" in v.describe()

    def test_tiny_but_significant_shift_respects_effect_floor(self):
        # 2% slower with near-zero noise: maximally significant, but
        # below the practical floor -> not a regression.
        base = [1.0 + 1e-4 * i for i in range(9)]
        cur = [1.02 + 1e-4 * i for i in range(9)]
        v = detect_regression(base, cur, min_effect=1.10)
        assert v.p_value < 0.01
        assert not v.regressed


# ----------------------------------------------------------------------
# report: laziness + gate semantics
# ----------------------------------------------------------------------
class CountingStore(RunStore):
    """RunStore that counts history-file reads, for the laziness test."""

    def __init__(self, root):
        super().__init__(root)
        self.reads = {}

    def read(self, bench):
        self.reads[bench] = self.reads.get(bench, 0) + 1
        return super().read(bench)


class TestExperimentReport:
    def _seeded_store(self, tmp_path, *, slow_factor=1.0):
        """Baseline run at t=100 (promoted) + 3 current runs after."""
        store = CountingStore(tmp_path / "runs")
        baseline = make_record(
            timestamp=100.0,
            samples={"wall_s": [1.0, 1.02, 0.98, 1.01, 0.99, 1.03]},
        )
        store.append(baseline)
        BaselineRegistry.for_store(store).promote(baseline)
        for i in range(3):
            store.append(make_record(
                timestamp=200.0 + i,
                samples={"wall_s": [slow_factor * v
                                    for v in (1.0, 1.01, 0.99)]},
            ))
        return store

    def test_history_file_read_at_most_once_per_report(self, tmp_path):
        store = self._seeded_store(tmp_path)
        report = ExperimentReport(store)
        assert store.reads == {}  # constructing a report costs nothing
        report.regressions("kernels")
        report.time_series("kernels", "wall_s")
        report.metrics("kernels")
        _ = report.all_regressions
        assert store.reads == {"kernels": 1}

    def test_confirmed_regression_on_slow_current(self, tmp_path):
        store = self._seeded_store(tmp_path, slow_factor=2.0)
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert cmp_.machine_match
        assert cmp_.regressed
        assert cmp_.verdicts["wall_s"].regressed
        assert len(cmp_.current_ids) == 3

    def test_no_regression_on_steady_current(self, tmp_path):
        store = self._seeded_store(tmp_path, slow_factor=1.0)
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert not cmp_.regressed
        assert not cmp_.verdicts["wall_s"].regressed

    def test_cross_machine_is_advisory_only(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        other = dict(machine_fingerprint(), cpu_count=999,
                     platform="other-os")
        baseline = make_record(
            timestamp=100.0, machine=other,
            samples={"wall_s": [1.0, 1.02, 0.98, 1.01, 0.99, 1.03]},
        )
        store.append(baseline)
        BaselineRegistry.for_store(store).promote(baseline)
        for i in range(3):
            store.append(make_record(
                timestamp=200.0 + i,
                samples={"wall_s": [2.0, 2.02, 1.98]},
            ))
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert not cmp_.machine_match
        assert not cmp_.regressed          # never confirmed cross-machine
        assert cmp_.advisory_regressions == ["wall_s"]
        assert any("ADVISORY" in ln for ln in cmp_.describe_lines())

    def test_same_commit_reruns_before_promotion_pool_into_baseline(
            self, tmp_path):
        store = RunStore(tmp_path / "runs")
        for ts in (50.0, 60.0):
            store.append(make_record(
                timestamp=ts, samples={"wall_s": [1.0, 1.01, 0.99]}))
        baseline = make_record(
            timestamp=100.0, samples={"wall_s": [1.0, 1.02, 0.98]})
        store.append(baseline)
        BaselineRegistry.for_store(store).promote(baseline)
        report = ExperimentReport(store)
        pool, ids = report._baseline_pool("kernels", baseline)
        assert len(ids) == 3               # both earlier runs pooled in
        assert len(pool["wall_s"]) == 9
        # ...and with no runs after promotion there is nothing current.
        cmp_ = report.regressions("kernels")
        assert cmp_.current_ids == ()
        assert "no runs newer" in cmp_.note

    def test_same_commit_rerun_after_promotion_stays_current(
            self, tmp_path):
        # The pool must not swallow future same-commit runs, or a
        # regression on the same commit could never be seen.
        store = self._seeded_store(tmp_path, slow_factor=2.0)
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert cmp_.regressed

    def _baseline_and_slow_runs(self, tmp_path, *, smoke):
        """A promoted smoke-config baseline and three 5x-slower runs on
        the same machine, recorded under ``smoke``."""
        store = RunStore(tmp_path / "runs")
        baseline = make_record(
            timestamp=100.0,
            samples={"wall_s": [1.0, 1.02, 0.98, 1.01, 0.99, 1.03]},
        )
        store.append(baseline)
        BaselineRegistry.for_store(store).promote(baseline)
        for i in range(3):
            store.append(make_record(
                timestamp=200.0 + i, smoke=smoke,
                samples={"wall_s": [5.0, 5.05, 4.95]},
            ))
        return store

    def test_runs_under_another_config_are_not_judged(self, tmp_path):
        # A full-mode run times another workload than a smoke-mode
        # baseline; being slower says nothing about a regression.
        store = self._baseline_and_slow_runs(tmp_path, smoke=False)
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert not cmp_.regressed
        assert cmp_.verdicts == {}
        assert cmp_.current_ids == ()
        assert "config" in cmp_.note and "smoke" in cmp_.note

    def test_same_config_slow_runs_still_regress(self, tmp_path):
        store = self._baseline_and_slow_runs(tmp_path, smoke=True)
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert cmp_.machine_match
        assert cmp_.regressed
        assert len(cmp_.current_ids) == 3

    def test_other_config_runs_stay_out_of_the_baseline_pool(
            self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.append(make_record(
            timestamp=50.0, smoke=False,
            samples={"wall_s": [9.0, 9.1, 8.9]}))
        baseline = make_record(
            timestamp=100.0, samples={"wall_s": [1.0, 1.02, 0.98]})
        store.append(baseline)
        pool, ids = ExperimentReport(store)._baseline_pool(
            "kernels", baseline)
        assert ids == {baseline.run_id}
        assert pool["wall_s"] == [1.0, 1.02, 0.98]

    def test_no_baseline_means_recording_only(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.append(make_record())
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert not cmp_.regressed
        assert "recording only" in cmp_.note

    def test_missing_baseline_record_is_reported(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        ghost = make_record(run_id="kernels-0-ghost")
        BaselineRegistry.for_store(store).promote(ghost)
        store.append(make_record())
        cmp_ = ExperimentReport(store).regressions("kernels")
        assert not cmp_.regressed
        assert "missing from" in cmp_.note

    def test_compare_runs_pairwise(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        a = make_record(timestamp=1.0,
                        samples={"wall_s": [1.0, 1.01, 0.99]})
        b = make_record(timestamp=2.0,
                        samples={"wall_s": [2.0, 2.01, 1.99]})
        store.append(a)
        store.append(b)
        verdicts = ExperimentReport(store).compare_runs(
            "kernels", a.run_id, b.run_id)
        assert verdicts["wall_s"].median_ratio == pytest.approx(2.0,
                                                                rel=0.05)
        with pytest.raises(KeyError, match="nope"):
            ExperimentReport(store).compare_runs("kernels", a.run_id,
                                                 "nope")


# ----------------------------------------------------------------------
# baseline registry
# ----------------------------------------------------------------------
class TestBaselineRegistry:
    def test_promote_and_get(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        registry = BaselineRegistry.for_store(store)
        assert registry.get("kernels") is None
        rec = make_record()
        entry = registry.promote(rec)
        assert entry["run_id"] == rec.run_id
        assert registry.get("kernels") == rec.run_id
        # second promote replaces
        rec2 = make_record()
        registry.promote(rec2)
        assert registry.get("kernels") == rec2.run_id

    def test_corrupt_registry_is_a_format_error(self, tmp_path):
        path = tmp_path / "baselines.json"
        path.write_text("{broken\n")
        with pytest.raises(StoreFormatError, match="invalid JSON"):
            BaselineRegistry(path).load()
        path.write_text('{"kernels": {"git_hash": "x"}}\n')
        with pytest.raises(StoreFormatError, match="run_id"):
            BaselineRegistry(path).load()


# ----------------------------------------------------------------------
# CLI: promote / compare / history through the real entry point
# ----------------------------------------------------------------------
class TestBenchCLI:
    def _store_with_runs(self, tmp_path, *, slow_factor=1.0):
        store = RunStore(tmp_path / "runs")
        baseline = make_record(
            timestamp=100.0,
            samples={"wall_s": [1.0, 1.02, 0.98, 1.01, 0.99, 1.03]},
        )
        store.append(baseline)
        for i in range(3):
            store.append(make_record(
                timestamp=200.0 + i,
                samples={"wall_s": [slow_factor * v
                                    for v in (1.0, 1.01, 0.99)]},
            ))
        return store, baseline

    def _cli(self, tmp_path, *argv):
        return cli_main(["bench", "--store-dir",
                         str(tmp_path / "runs"), *argv])

    def test_promote_then_compare_clean(self, tmp_path, capsys):
        store, baseline = self._store_with_runs(tmp_path)
        rc = self._cli(tmp_path, "baseline", "promote", "kernels",
                       "--run-id", baseline.run_id)
        assert rc == 0
        assert BaselineRegistry.for_store(store).get("kernels") == \
            baseline.run_id
        rc = self._cli(tmp_path, "compare", "--strict")
        out = capsys.readouterr().out
        assert rc == 0
        assert "no confirmed regressions" in out

    def test_compare_strict_fails_on_regression(self, tmp_path, capsys):
        _, baseline = self._store_with_runs(tmp_path, slow_factor=2.0)
        assert self._cli(tmp_path, "baseline", "promote", "kernels",
                         "--run-id", baseline.run_id) == 0
        rc = self._cli(tmp_path, "compare", "--strict")
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSED" in captured.out
        assert "confirmed regressions: kernels" in captured.err
        # without --strict the same regression is reported but exit 0
        assert self._cli(tmp_path, "compare") == 0

    def test_promote_latest_and_if_missing(self, tmp_path, capsys):
        store, _ = self._store_with_runs(tmp_path)
        assert self._cli(tmp_path, "baseline", "promote", "all") == 0
        promoted = BaselineRegistry.for_store(store).get("kernels")
        assert promoted == store.latest("kernels").run_id
        assert self._cli(tmp_path, "baseline", "promote", "all",
                         "--if-missing") == 0
        assert "skipping" in capsys.readouterr().out
        assert BaselineRegistry.for_store(store).get("kernels") == promoted

    def test_promote_unknown_run_fails(self, tmp_path):
        self._store_with_runs(tmp_path)
        assert self._cli(tmp_path, "baseline", "promote", "kernels",
                         "--run-id", "kernels-0-nope") == 2

    def test_baseline_show_and_history(self, tmp_path, capsys):
        _, baseline = self._store_with_runs(tmp_path)
        self._cli(tmp_path, "baseline", "promote", "kernels",
                  "--run-id", baseline.run_id)
        capsys.readouterr()
        assert self._cli(tmp_path, "baseline", "show") == 0
        assert baseline.run_id in capsys.readouterr().out
        assert self._cli(tmp_path, "history", "kernels") == 0
        out = capsys.readouterr().out
        assert "kernels.wall_s:" in out
        assert out.count("git=") == 4
        assert self._cli(tmp_path, "history", "nosuch") == 2

    def test_corrupt_store_surfaces_line_numbered_error(self, tmp_path,
                                                        capsys):
        store, _ = self._store_with_runs(tmp_path)
        with open(store.path_for("kernels"), "a") as fh:
            fh.write("garbage\n")
        rc = self._cli(tmp_path, "compare")
        captured = capsys.readouterr()
        assert rc == 2   # ReproError path in the main CLI
        assert "line 5" in captured.err
