"""Gate-migration contract for the store-backed benches.

Each ``benchmarks/bench_{forest,obs,parallel}.py`` must now do both
halves of the migration:

* append a well-formed :class:`~repro.bench.platform.store.RunRecord`
  (seed in config, non-empty per-repeat samples, exact work counters)
  to the run store, and
* keep its legacy ``BENCH_*.json`` artifact structurally compatible for
  one deprecation cycle — no key removals (additive keys are fine), and
  never leak the in-memory ``store_result`` into the file.

Runs here use tiny graphs; the hard-floor verdicts are irrelevant (the
functions return their payload either way), only the record/artifact
structure is under test.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.platform.store import RunStore

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"test_migration_bench_{name}", BENCH_DIR / f"bench_{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def store_args(tmp_path):
    """What ``add_store_args`` would parse: store on, stat gate off
    (a tiny-graph test run must never fail on somebody's baseline)."""
    return SimpleNamespace(store_dir=str(tmp_path / "runs"),
                           no_store=False, no_stat_gate=True)


def run_tiny(name, tmp_path, seed):
    """One tiny invocation of bench ``name``; returns the payload."""
    module = load_bench(name)
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / f"BENCH_{name}.json"
    sa = store_args(tmp_path)
    if name == "obs":
        return module.run_obs_bench(
            n=50, p=0.3, seed=seed, number=1, repeats=2,
            out_path=out, store_args=sa)
    if name == "parallel":
        return module.run_parallel_bench(
            n=80, p=0.3, k=4, seed=seed, processes=2,
            chunks_per_process=2, repeats=2, out_path=out, store_args=sa)
    if name == "forest":
        from repro.graph.generators import erdos_renyi
        return module.run_forest_bench(
            smoke=True, number=1, repeats=2, out_path=out, seed=seed,
            graphs=[("er-60", erdos_renyi(60, 0.3, seed=seed))],
            store_args=sa)
    raise AssertionError(name)


#: The legacy artifact's frozen structure: these keys may not disappear
#: until the deprecation cycle ends.  Additive keys are allowed.
FROZEN_TOP_KEYS = {
    "obs": {"bench", "config", "sweep_seconds", "overhead_pct", "gate"},
    "parallel": {"bench", "config", "count", "serial_s", "parallel_s",
                 "overhead", "speedup", "gate"},
    "forest": {"bench", "config", "results", "gate"},
}

FROZEN_NESTED = {
    "forest": ("results", {"graph", "kernel", "num_leaves",
                           "forest_bytes", "direct_s", "forest_query_s",
                           "forest_build_s", "speedup",
                           "breakeven_workloads", "counts_match",
                           "pass"}),
}

SEEDS = {"obs": 7, "parallel": 13, "forest": 11}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SEEDS))
class TestGateMigration:
    def test_invocation_writes_record_and_compatible_artifact(
            self, name, tmp_path):
        seed = SEEDS[name]
        payload = run_tiny(name, tmp_path, seed)

        # --- run-store half of the contract ---------------------------
        store = RunStore(tmp_path / "runs")
        assert store.benches() == [name]
        (rec,) = store.read(name)
        assert rec.bench == name
        assert rec.seed == seed                 # seed in every record
        assert rec.samples                      # non-empty sample dict
        for metric, values in rec.samples.items():
            assert len(values) == 2, (metric, values)  # one per repeat
        assert rec.metrics                      # exact work counters
        assert all(v > 0 for v in rec.metrics.values())
        assert rec.gate == payload["gate"]
        assert rec.machine["cpu_count"] >= 1

        # --- legacy-artifact half of the contract ---------------------
        artifact = json.loads(
            (tmp_path / f"BENCH_{name}.json").read_text())
        missing = FROZEN_TOP_KEYS[name] - set(artifact)
        assert not missing, f"legacy keys removed from BENCH_{name}.json: " \
                            f"{sorted(missing)}"
        assert artifact["bench"] == name
        assert artifact["config"]["seed"] == seed
        # store_result is in-memory only, never in the artifact file
        assert "store_result" not in artifact
        assert "store_result" in payload
        if name in FROZEN_NESTED:
            key, frozen = FROZEN_NESTED[name]
            entries = artifact[key]
            if isinstance(entries, dict):
                entries = list(entries.values())
            assert entries
            for entry in entries:
                assert not frozen - set(entry)

    def test_exact_work_metrics_are_seed_deterministic(
            self, name, tmp_path):
        # Two same-seed invocations must report identical work counters
        # — any drift is an algorithmic change, not timing noise.
        seed = SEEDS[name]
        run_tiny(name, tmp_path / "a", seed)
        run_tiny(name, tmp_path / "b", seed)
        (rec_a,) = RunStore(tmp_path / "a" / "runs").read(name)
        (rec_b,) = RunStore(tmp_path / "b" / "runs").read(name)
        assert rec_a.metrics == rec_b.metrics
        assert rec_a.config == rec_b.config

    def test_no_store_flag_skips_the_store(self, name, tmp_path):
        module = load_bench(name)  # noqa: F841 - import check only
        sa = store_args(tmp_path)
        sa.no_store = True
        seed = SEEDS[name]
        out = tmp_path / f"BENCH_{name}.json"
        if name == "obs":
            payload = module.run_obs_bench(
                n=50, p=0.3, seed=seed, number=1, repeats=2,
                out_path=out, store_args=sa)
        elif name == "parallel":
            payload = module.run_parallel_bench(
                n=80, p=0.3, k=4, seed=seed, processes=2,
                chunks_per_process=2, repeats=2, out_path=out,
                store_args=sa)
        else:
            from repro.graph.generators import erdos_renyi
            payload = module.run_forest_bench(
                smoke=True, number=1, repeats=2, out_path=out, seed=seed,
                graphs=[("er-60", erdos_renyi(60, 0.3, seed=seed))],
                store_args=sa)
        assert RunStore(tmp_path / "runs").benches() == []
        assert payload["store_result"] == {"regressed": False, "exit": 0}
        assert out.exists()


def test_bench_cli_run_uses_the_scripts(tmp_path, capsys):
    """``repro bench run`` drives the real bench_*.py via the adapter
    flags (smoke scale would be slow here; just check discovery fails
    loudly for unknown names)."""
    from repro.cli import main as cli_main
    rc = cli_main(["bench", "--store-dir", str(tmp_path / "runs"),
                   "run", "nosuch", "--bench-dir", str(BENCH_DIR)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nosuch" in err


def test_bench_dir_discovery_rejects_missing_dir(tmp_path):
    from repro.bench.platform.cli import _find_bench_dir
    with pytest.raises(FileNotFoundError):
        _find_bench_dir(str(tmp_path / "nowhere"))
    assert _find_bench_dir(str(BENCH_DIR)) == BENCH_DIR
