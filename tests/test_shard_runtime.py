"""The crash-safe out-of-core shard runtime.

The contract under test, per docs/sharding.md:

* **exactness** — a sharded run with the watermark far below the
  working set is bit-identical to the in-memory engines (counts,
  per-root arrays, integer counters) on both test kernel backends
  (``tests/backends.py``);
* **crash safety** — a run killed at *any* shard boundary (the kill
  matrix) or mid-spill resumes from the ledger to the same result;
* **fault tolerance** — every injected single I/O fault is absorbed by
  quarantine + bounded retry (exact result, unflagged); a persistent
  fault exhausts the retries and either degrades explicitly
  (``degraded_from="shard"``, still exact via the in-memory fallback)
  or raises :class:`~repro.errors.ShardError` — never a wrong count.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.counting.sct import SCTEngine
from repro.errors import (
    CheckpointError,
    CountingError,
    RunInterrupted,
    ShardError,
)
from repro.graph.generators import erdos_renyi, rmat
from repro.ordering import core_ordering
from repro.ordering.directionalize import directionalize
from repro.runtime import FaultPlan, FaultSpec, ProgressLog, RunController
from repro.shard import count_sharded, plan_shards
from repro.shard.executor import LEDGER_NAME, _ledger_state

from .backends import KERNEL_NAMES, backend
from .corpus import GRAPHS, IDS, ordering, truth

# A watermark far below every corpus graph's working set, so each run
# genuinely spills many shards.
TINY_MB = 512 / (1 << 20)  # 512 bytes
KERNELS = KERNEL_NAMES


@pytest.fixture
def g():
    return rmat(6, edge_factor=6.0, seed=7)


@pytest.fixture
def dag(g):
    return directionalize(g, core_ordering(g))


def _assert_matches_serial(res, ref):
    """Sharded vs in-memory: exact counts and per-root arrays; integer
    counters exact (float counters may differ in the last ulp from
    fold-order association, same as the process pool)."""
    assert res.count == ref.count
    assert res.all_counts == ref.all_counts
    assert np.array_equal(res.per_root_work, ref.per_root_work)
    assert np.array_equal(res.per_root_memory, ref.per_root_memory)
    a, b = res.counters.as_dict(), ref.counters.as_dict()
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12), key


# ---------------------------------------------------------------- planner
def test_plan_is_exhaustive_ordered_partition(g, dag):
    plan = plan_shards(g, dag, shard_bytes=512)
    assert plan.num_shards > 1
    assert plan.shards[0].lo == 0
    assert plan.shards[-1].hi == g.num_vertices
    for i, s in enumerate(plan.shards):
        assert s.index == i
        assert s.lo < s.hi
        if i:
            assert s.lo == plan.shards[i - 1].hi


def test_plan_respects_watermark_except_singletons(g, dag):
    from repro.shard.planner import estimate_root_bytes

    budget = 2048
    costs = estimate_root_bytes(g, dag)
    for s in plan_shards(g, dag, shard_bytes=budget).shards:
        if s.num_roots > 1:
            assert s.est_bytes <= budget
        else:  # a single oversized root still gets a shard
            assert s.est_bytes == int(costs[s.lo])


def test_plan_fingerprint_keys_inputs(g, dag):
    a = plan_shards(g, dag, shard_bytes=512)
    b = plan_shards(g, dag, shard_bytes=512)
    c = plan_shards(g, dag, shard_bytes=1024)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_plan_validation(g, dag):
    with pytest.raises(CountingError, match="shard_bytes"):
        plan_shards(g, dag, shard_bytes=0)


# ----------------------------------------------------- differential sweep
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "name,graph", GRAPHS[::8], ids=IDS[::8]
)
def test_sharded_matches_serial_and_truth(tmp_path, name, graph, kernel):
    dag = directionalize(graph, ordering(name, graph))
    ref = SCTEngine(graph, dag, "remap").count(4)
    with backend(kernel):
        res = count_sharded(
            graph, dag, k=4, kernel="bigint",
            shard_mb=TINY_MB, spill_dir=tmp_path / "spill",
        )
    _assert_matches_serial(res, ref)
    assert res.count == truth(name, graph, 4)
    assert res.kernel == "bigint"
    assert res.degraded_from is None


@pytest.mark.parametrize("kernel", KERNELS)
def test_sharded_allk_matches_serial(tmp_path, g, dag, kernel):
    ref = SCTEngine(g, dag, "remap").count_all()
    with backend(kernel):
        res = count_sharded(
            g, dag, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
        )
    _assert_matches_serial(res, ref)


def test_sharded_accepts_ordering_and_shard_bytes(tmp_path, g):
    ref = SCTEngine(g, core_ordering(g)).count(4)
    res = count_sharded(
        g, core_ordering(g), k=4, shard_bytes=512,
        spill_dir=tmp_path / "s",
    )
    _assert_matches_serial(res, ref)


def test_sharded_empty_graph(tmp_path):
    g = erdos_renyi(0, 0.0, seed=1)
    dag = directionalize(g, core_ordering(g))
    assert count_sharded(
        g, dag, k=3, shard_mb=1, spill_dir=tmp_path / "a"
    ).count == 0
    assert count_sharded(
        g, dag, shard_mb=1, spill_dir=tmp_path / "b"
    ).all_counts == [0]


def test_sharded_pool_path_matches_serial(tmp_path, g, dag):
    ref = SCTEngine(g, dag, "remap").count(4)
    res = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
        processes=2,
    )
    assert res.count == ref.count
    assert np.array_equal(res.per_root_work, ref.per_root_work)


def test_executor_validation(tmp_path, g, dag):
    with pytest.raises(CountingError, match="exactly one"):
        count_sharded(g, dag, k=3, spill_dir=tmp_path)
    with pytest.raises(CountingError, match="exactly one"):
        count_sharded(
            g, dag, k=3, shard_mb=1, shard_bytes=512, spill_dir=tmp_path
        )
    with pytest.raises(CountingError, match="k must be >= 1"):
        count_sharded(g, dag, k=0, shard_mb=1, spill_dir=tmp_path)
    with pytest.raises(CountingError, match="max_retries"):
        count_sharded(
            g, dag, k=3, shard_mb=1, spill_dir=tmp_path, max_retries=-1
        )


# ------------------------------------------------------------ kill matrix
def _interrupted_then_resumed(tmp_path, g, dag, kernel, at_op, k=4):
    """Kill at shard boundary ``at_op``, then resume; return the final
    result (asserting the kill actually happened)."""
    spill = tmp_path / "spill"
    ctl = RunController(faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)))
    with backend(kernel):
        with pytest.raises(RunInterrupted):
            count_sharded(
                g, dag, k=k, shard_mb=TINY_MB, spill_dir=spill,
                controller=ctl,
            )
        return count_sharded(
            g, dag, k=k, shard_mb=TINY_MB, spill_dir=spill, resume=True,
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_kill_matrix_every_shard_boundary(tmp_path, g, dag, kernel):
    """Interrupt at every shard boundary; each resume is bit-identical
    to the uninterrupted run — the satellite-4 kill matrix."""
    plan = plan_shards(g, dag, shard_bytes=int(TINY_MB * (1 << 20)))
    assert plan.num_shards >= 4
    ref = SCTEngine(g, dag, "remap").count(4)
    for boundary in range(1, plan.num_shards + 1):
        res = _interrupted_then_resumed(
            tmp_path / f"b{boundary}", g, dag, kernel, boundary
        )
        _assert_matches_serial(res, ref)


def test_kill_matrix_allk_chain(tmp_path, g, dag):
    """Two consecutive kills on one ledger, all-k — resume of a resume."""
    spill = tmp_path / "spill"
    ref = SCTEngine(g, dag, "remap").count_all()
    for at_op in (2, 3):
        ctl = RunController(
            faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)),
        )
        with pytest.raises(RunInterrupted):
            count_sharded(
                g, dag, shard_mb=TINY_MB, spill_dir=spill,
                controller=ctl, resume=at_op != 2,
            )
    res = count_sharded(g, dag, shard_mb=TINY_MB, spill_dir=spill, resume=True)
    _assert_matches_serial(res, ref)


def test_resume_of_complete_run_recounts_nothing(tmp_path, g, dag):
    spill = tmp_path / "spill"
    ref = count_sharded(g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill)
    before = (spill / LEDGER_NAME).read_bytes()
    res = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, resume=True
    )
    assert res.count == ref.count
    assert np.array_equal(res.per_root_work, ref.per_root_work)
    # Pure fold from the ledger: nothing new was appended.
    assert (spill / LEDGER_NAME).read_bytes() == before


def test_mid_spill_tear_then_resume(tmp_path, g, dag):
    """A torn spill write with retries disabled fails loudly (never a
    wrong count); the next invocation resumes and lands exactly."""
    spill = tmp_path / "spill"
    ref = SCTEngine(g, dag, "remap").count(4)
    faults = FaultPlan(FaultSpec("io_partial_write", at_op=4))
    with pytest.raises(ShardError, match="failed after 1 attempts"):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill,
            faults=faults, max_retries=0,
        )
    # The torn artifact was quarantined, not left under its real name.
    assert list(spill.glob("*.corrupt"))
    res = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, resume=True
    )
    _assert_matches_serial(res, ref)


# ------------------------------------------------------- fault absorption
@pytest.mark.parametrize("kind,at_op", [
    # Write ops: 1 = ledger header, then per shard 4 spill files + 2
    # ledger appends; read ops: 4 verifies per shard.  These indices
    # target spill files of the first two shards.
    ("io_partial_write", 2),
    ("io_partial_write", 8),
    ("io_corrupt_read", 1),
    ("io_corrupt_read", 5),
    ("io_enospc", 3),
    ("io_enospc", 9),
])
def test_single_io_fault_absorbed_exactly(tmp_path, g, dag, kind, at_op):
    """Any single injected I/O fault → quarantine/retry → exact result,
    unflagged.  The ISSUE's headline acceptance criterion."""
    ref = SCTEngine(g, dag, "remap").count(4)
    faults = FaultPlan(FaultSpec(kind, at_op=at_op))
    with obs.collecting() as reg:
        res = count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
            faults=faults,
        )
        retried = reg.counter("shard_retries").value
        spilled = reg.counter("shard_spilled_bytes").value
    _assert_matches_serial(res, ref)
    assert res.degraded_from is None
    assert retried >= 1
    assert spilled > 0


def test_corrupt_read_quarantines_and_respills(tmp_path, g, dag):
    faults = FaultPlan(FaultSpec("io_corrupt_read", at_op=1))
    spill = tmp_path / "s"
    with obs.collecting() as reg:
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, faults=faults
        )
        assert reg.counter("shard_quarantined").value == 1
    corpses = list(spill.glob("*.corrupt"))
    assert len(corpses) == 1


def test_persistent_fault_degrades_exactly(tmp_path, g, dag):
    """Retries exhausted + degrade → the in-memory fallback rung: the
    count is still exact but flagged ``degraded_from="shard"``."""
    ref = SCTEngine(g, dag, "remap").count(4)
    faults = FaultPlan(FaultSpec("io_enospc", at_op=4, repeat=True))
    with obs.collecting() as reg:
        res = count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
            faults=faults, degrade=True, max_retries=2,
        )
        rungs = reg.counter(
            "runtime_degradations_total", rung="shard_fallback"
        ).value
    assert res.count == ref.count
    assert res.degraded_from == "shard"
    assert rungs >= 1


def test_torn_ledger_append_is_durability_only(tmp_path, g, dag):
    """A fault on a *ledger append* (write op 7 = shard 0's done
    record) never perturbs the run's result — only durability: the
    resume recounts whatever the torn tail lost."""
    spill = tmp_path / "spill"
    ref = SCTEngine(g, dag, "remap").count(4)
    res = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill,
        faults=FaultPlan(FaultSpec("io_partial_write", at_op=7)),
    )
    _assert_matches_serial(res, ref)
    again = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, resume=True
    )
    _assert_matches_serial(again, ref)


def test_ledger_creation_failure_is_typed(tmp_path, g, dag):
    faults = FaultPlan(FaultSpec("io_enospc", at_op=1))
    with pytest.raises(CheckpointError, match="cannot create progress log"):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
            faults=faults,
        )


def test_persistent_fault_without_degrade_raises(tmp_path, g, dag):
    faults = FaultPlan(FaultSpec("io_enospc", at_op=4, repeat=True))
    with pytest.raises(ShardError, match="failed after 3 attempts"):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "s",
            faults=faults, max_retries=2,
        )


def test_retry_backoff_is_seeded_and_sleeps(tmp_path, g, dag, monkeypatch):
    from repro.shard import executor

    delays: list[float] = []
    monkeypatch.setattr(executor, "_sleep", delays.append)
    faults = FaultPlan(FaultSpec("io_enospc", at_op=2, repeat=True))
    with pytest.raises(ShardError):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "a",
            faults=faults, max_retries=3, retry_backoff=0.01, retry_seed=5,
        )
    assert len(delays) == 3
    assert all(d > 0 for d in delays)
    assert delays[1] > delays[0] * 0.5  # exponential base dominates jitter
    delays2: list[float] = []
    monkeypatch.setattr(executor, "_sleep", delays2.append)
    faults = FaultPlan(FaultSpec("io_enospc", at_op=2, repeat=True))
    with pytest.raises(ShardError):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "b",
            faults=faults, max_retries=3, retry_backoff=0.01, retry_seed=5,
        )
    assert delays2 == delays  # same seed -> same jitter stream


# ------------------------------------------------------------------ ledger
def test_ledger_refuses_descriptor_mismatch(tmp_path, g, dag):
    spill = tmp_path / "spill"
    count_sharded(g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill)
    with pytest.raises(CheckpointError, match="k="):
        count_sharded(
            g, dag, k=5, shard_mb=TINY_MB, spill_dir=spill, resume=True
        )


def _done(shard: int, count: int) -> dict:
    return {"type": "done", "shard": shard, "state": {"count": count}}


def test_ledger_truncates_torn_tail(tmp_path):
    path = tmp_path / LEDGER_NAME
    descriptor = {"engine": "sct-shard", "k": 4}
    led = ProgressLog.create(path, descriptor)
    led.append(_done(0, 7))
    led.append(_done(1, 9))
    intact = path.read_bytes()
    # Simulate a kill mid-append: half a record at the tail.
    path.write_bytes(intact + b'{"type": "done", "shard": 2, "st')
    replayed, lines = ProgressLog.replay(path, descriptor)
    assert set(_ledger_state(lines)[1]) == {0, 1}
    assert path.read_bytes() == intact  # tail truncated on replay
    # And the next append starts on a clean line boundary.
    replayed.append(_done(2, 11))
    _, lines = ProgressLog.replay(path, descriptor)
    assert set(_ledger_state(lines)[1]) == {0, 1, 2}


def test_ledger_rejects_tampered_line(tmp_path):
    path = tmp_path / LEDGER_NAME
    descriptor = {"engine": "sct-shard"}
    led = ProgressLog.create(path, descriptor)
    led.append(_done(0, 7))
    led.append(_done(1, 9))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"count": 7', b'"count": 8')
    path.write_bytes(b"".join(lines))
    _, replayed = ProgressLog.replay(path, descriptor)
    # Replay stops at the tampered line; everything after is discarded.
    assert replayed == []
    assert path.read_bytes() == lines[0]


def test_ledger_missing_header_refused(tmp_path):
    path = tmp_path / LEDGER_NAME
    path.write_text('{"type": "done", "shard": 0}\n')
    with pytest.raises(CheckpointError, match="header"):
        ProgressLog.replay(path, {"engine": "sct-shard"})


def test_latest_spill_record_wins(tmp_path):
    path = tmp_path / LEDGER_NAME
    led = ProgressLog.create(path, {"engine": "sct-shard"})
    for digest in ("aaaa", "bbbb"):
        led.append({"type": "spill", "shard": 0, "manifest": {
            "graph_indptr": {"checksum": digest, "bytes": 1}}})
    _, lines = ProgressLog.replay(path, {"engine": "sct-shard"})
    spilled = _ledger_state(lines)[0]
    assert spilled[0]["graph_indptr"]["checksum"] == "bbbb"


def test_resume_without_ledger_refused(tmp_path, g, dag):
    """A missing ledger under resume is refused, as a controller
    refuses a missing progress log; nothing is counted."""
    with pytest.raises(CheckpointError, match="cannot read progress log"):
        count_sharded(g, dag, k=4, shard_mb=TINY_MB,
                      spill_dir=tmp_path / "s", resume=True)


def test_one_pool_per_sharded_run(tmp_path, g, dag, monkeypatch):
    """With ``processes > 1`` and no runtime, a sharded run starts one
    pool for all its shards, closes it, and records what a serial
    sharded run records."""
    from repro.parallel import runtime as par

    made = []
    real_init = par.ParallelRuntime.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(par.ParallelRuntime, "__init__", counting_init)
    plan = plan_shards(g, dag, shard_bytes=int(TINY_MB * (1 << 20)))
    assert plan.num_shards >= 4
    ref = count_sharded(g, dag, k=4, shard_mb=TINY_MB,
                        spill_dir=tmp_path / "serial")
    assert made == []
    res = count_sharded(g, dag, k=4, shard_mb=TINY_MB,
                        spill_dir=tmp_path / "pool", processes=2)
    assert len(made) == 1 and made[0]._pool is None  # closed on exit
    _assert_matches_serial(res, SCTEngine(g, dag, "remap").count(4))
    assert res.count == ref.count
    assert np.array_equal(res.per_root_work, ref.per_root_work)

    def done_records(spill):
        _, lines = ProgressLog.replay(spill / LEDGER_NAME, {})
        return {i: (s["count"], s["per_root_work"])
                for i, s in _ledger_state(lines)[1].items()}

    assert done_records(tmp_path / "pool") == done_records(
        tmp_path / "serial")
    # An abort closes the owned pool too.
    made.clear()
    with pytest.raises(RunInterrupted):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=tmp_path / "abort",
            processes=2, controller=RunController(
                faults=FaultPlan(FaultSpec("interrupt", at_op=3))),
        )
    assert len(made) == 1 and made[0]._pool is None


# ----------------------------------------------------- config + pipeline
def test_config_validates_shard_knobs(tmp_path):
    from repro.core import PivotScaleConfig

    with pytest.raises(CountingError, match="spill_dir"):
        PivotScaleConfig(shard_mb=1.0)
    with pytest.raises(CountingError, match="shard_mb must be"):
        PivotScaleConfig(shard_mb=0.0, spill_dir=str(tmp_path))
    with pytest.raises(CountingError, match="shard_retries"):
        PivotScaleConfig(
            shard_mb=1.0, spill_dir=str(tmp_path), shard_retries=-1
        )
    # resume without a checkpoint is legal in shard mode (the ledger
    # is the resume mechanism)...
    PivotScaleConfig(shard_mb=1.0, spill_dir=str(tmp_path), resume=True)
    # ...but still refused without either mechanism.
    with pytest.raises(CountingError, match="resume"):
        PivotScaleConfig(resume=True)
    # A checkpoint path would be silently unused: the ledger is the log.
    with pytest.raises(CountingError, match="checkpoint_path"):
        PivotScaleConfig(shard_mb=1.0, spill_dir=str(tmp_path),
                         checkpoint_path=str(tmp_path / "ck"))


def test_pipeline_sharded_matches_in_memory(tmp_path, g):
    from repro.core import PivotScaleConfig, count_cliques

    ref = count_cliques(g, 4, PivotScaleConfig(ordering="core"))
    res = count_cliques(g, 4, PivotScaleConfig(
        ordering="core", shard_mb=TINY_MB, spill_dir=str(tmp_path / "s"),
    ))
    assert res.count == ref.count
    assert res.degraded_from is None


def test_cli_sharded_count_and_resume(tmp_path, g, dag, capsys):
    from repro.cli import main
    from repro.graph.io import write_edge_list

    edges = tmp_path / "g.txt"
    write_edge_list(g, edges)
    spill = tmp_path / "spill"
    ref = SCTEngine(g, core_ordering(g)).count(4)
    argv = ["count", "--edge-list", str(edges), "-k", "4",
            "--ordering", "core", "--shard-mb", str(TINY_MB),
            "--spill-dir", str(spill)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"4-cliques: {ref.count:,}" in out
    assert main(argv + ["--resume"]) == 0
    assert f"4-cliques: {ref.count:,}" in capsys.readouterr().out


def test_cli_sharded_dist(tmp_path, g, capsys):
    from repro.cli import main
    from repro.graph.io import write_edge_list

    edges = tmp_path / "g.txt"
    write_edge_list(g, edges)
    ref = SCTEngine(g, core_ordering(g)).count_all()
    assert main(["dist", "--edge-list", str(edges),
                 "--shard-mb", str(TINY_MB),
                 "--spill-dir", str(tmp_path / "spill")]) == 0
    out = capsys.readouterr().out
    assert f"k=  3: {ref.all_counts[3]:,}" in out


# ------------------------------------------------------- budget metering
def test_budgets_metered_at_shard_granularity(tmp_path, g, dag):
    from repro.errors import NodeBudgetExceededError
    from repro.runtime.budget import Budget

    serial = SCTEngine(g, dag, "remap").count(4)
    spill = tmp_path / "spill"
    ctl = RunController(Budget(max_nodes=int(
        serial.counters.function_calls // 2
    )))
    with pytest.raises(NodeBudgetExceededError):
        count_sharded(
            g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, controller=ctl
        )
    assert ctl.spent.roots_done > 0  # completed shards were metered
    # The ledger kept the completed shards: resuming under a fresh
    # (per-invocation) budget finishes and matches.
    res = count_sharded(
        g, dag, k=4, shard_mb=TINY_MB, spill_dir=spill, resume=True,
        controller=RunController(Budget(max_nodes=int(
            serial.counters.function_calls
        ))),
    )
    assert res.count == serial.count
