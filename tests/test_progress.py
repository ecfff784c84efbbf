"""The kill-anywhere contract over every progress log writer.

Every engine that checkpoints writes one append-only progress log of
its fold inputs (:mod:`repro.runtime.progress`): the serial count
(target-k and all-k), the pool count (target-k and all-k), the forest
build (with and without a member spill), the dirty-root recompute of
an edit batch, and the shard executor's ledger.  Each is interrupted at
its first, a middle and its last boundary, and twice in a row; the
resumed run must equal an uninterrupted one bit for bit — counts,
rows, ``Counters``, per-root vectors, forest arrays — and so must the
budget meter.  The controller's own log rules (no gaps after a failed
append, torn lines cut on replay, complete logs replay without work,
missing logs refused) and the CLI's per-batch stream logs close the
file.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.counting.forest import SCTForest
from repro.counting.sct import SCTEngine
from repro.errors import CheckpointError, RunInterrupted
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list
from repro.ordering import core_ordering
from repro.parallel.pool import (
    count_all_sizes_processes,
    count_kcliques_processes,
)
from repro.runtime import Budget, FaultPlan, FaultSpec, RunController
from repro.shard import count_sharded
from repro.shard.executor import LEDGER_NAME
from tests.logs import read_log

TINY_MB = 512 / (1 << 20)

#: An edit batch that dirties about a third of the graph's roots.
EDITS = [("+", i, (i + 7) % 40) for i in range(0, 40, 3)]


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(40, 0.3, seed=11)


@pytest.fixture(scope="module")
def order(g):
    return core_ordering(g)


def _spill_budget(g, order) -> Budget:
    """A watermark the counts-only forest fits under but one with a
    third of its member ids does not, so the spill lands early."""
    full = SCTForest.build(g, order)
    leaf_bytes = 12 * full.num_leaves
    member_bytes = 4 * (full.held_members.size + full.pivot_members.size)
    budget = leaf_bytes + member_bytes // 3
    assert budget >= max(full.counters.peak_subgraph_bytes, leaf_bytes)
    return Budget(max_memory_bytes=budget)


def _edited(g, order):
    forest = SCTForest.build(g, order)

    def go(ctl):
        edited = forest.copy()
        edited.apply_edits(EDITS, controller=ctl)
        return edited

    return go


#: name -> set-up returning ``go(ctl)``; the shard writer's ``go``
#: takes ``resume`` and the spill directory too.
WRITERS = {
    "count": lambda g, o: lambda ctl: SCTEngine(g, o).count(
        4, controller=ctl),
    "count_all": lambda g, o: lambda ctl: SCTEngine(g, o).count_all(
        controller=ctl),
    "pool_count": lambda g, o: lambda ctl: count_kcliques_processes(
        g, 4, o, processes=2, controller=ctl),
    "pool_count_all": lambda g, o: lambda ctl: count_all_sizes_processes(
        g, o, processes=2, controller=ctl),
    "forest": lambda g, o: lambda ctl: SCTForest.build(
        g, o, controller=ctl),
    "forest_spill": lambda g, o: lambda ctl: SCTForest.build(
        g, o, controller=ctl),
    "apply_edits": _edited,
    "shard": lambda g, o: lambda ctl, resume, spill: count_sharded(
        g, o, shard_mb=TINY_MB, spill_dir=spill, controller=ctl,
        resume=resume),
}


class _Run:
    """One writer's attempts against one log (or spill directory)."""

    def __init__(self, name, g, order, tmp_path):
        self.name = name
        self.go = WRITERS[name](g, order)
        tmp_path.mkdir(parents=True, exist_ok=True)
        self.path = tmp_path / "progress.log"
        self.spill = tmp_path / "spill"
        self.extra = (
            {"budget": _spill_budget(g, order), "degrade": True}
            if name == "forest_spill" else {}
        )

    def attempt(self, faults=None, resume=False, log=True):
        """Run once; return ``(controller, result or None)``, the
        result ``None`` when the attempt was interrupted."""
        if self.name == "shard":
            ctl = RunController(faults=faults, **self.extra)
            call = lambda: self.go(ctl, resume, self.spill)  # noqa: E731
        else:
            ctl = RunController(
                checkpoint_path=self.path if log else None,
                resume=resume, faults=faults, **self.extra,
            )
            call = lambda: self.go(ctl)  # noqa: E731
        try:
            return ctl, call()
        except RunInterrupted:
            return ctl, None


def _boundaries(run: _Run) -> int:
    """Root (or chunk, or shard) boundaries of an uninterrupted run."""
    faults = FaultPlan()
    run.attempt(faults, log=False)
    return faults.ops


def _same(a, b, pool: bool) -> None:
    """Bit-identical results (a pool's float ``Counters`` fields fold
    in arrival order, so they are compared to the last few bits)."""
    assert a.degraded_from == b.degraded_from
    ca, cb = a.counters.as_dict(), b.counters.as_dict()
    if pool:
        assert ca == pytest.approx(cb, rel=1e-12)
        assert {k: v for k, v in ca.items() if isinstance(v, int)} == {
            k: v for k, v in cb.items() if isinstance(v, int)}
    else:
        assert ca == cb
    names = ["per_root_work", "per_root_memory"]
    if isinstance(a, SCTForest):
        names += ["held_n", "pivot_n", "roots", "held_members",
                  "pivot_members", "per_root_recursion"]
        assert a.has_members == b.has_members
    else:
        assert (a.count, a.all_counts) == (b.count, b.all_counts)
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x, y), name


def _kill_points(n: int):
    """First, middle, last, and a chain of two (the second counted
    from the resume point)."""
    mid = max(1, n // 2)
    return [(1,), (mid,), (n,), (mid, max(1, (n - mid + 1) // 2))]


CASES = [
    (name, i) for name in sorted(WRITERS) for i in range(4)
]


@pytest.mark.parametrize("name,point", CASES,
                         ids=[f"{n}-{p}" for n, p in CASES])
def test_resume_anywhere_is_bit_identical(tmp_path, g, order, name, point):
    ref_ctl, ref = _Run(name, g, order, tmp_path / "ref").attempt()
    run = _Run(name, g, order, tmp_path / "run")
    kills = _kill_points(_boundaries(run))[point]
    spent = []
    resume = False
    for at_op in kills:
        ctl, res = run.attempt(
            FaultPlan(FaultSpec("interrupt", at_op=at_op)), resume=resume,
        )
        assert res is None, f"no interrupt at boundary {at_op}"
        spent.append(ctl.spent)
        resume = True
    ctl, res = run.attempt(resume=True)
    spent.append(ctl.spent)
    _same(res, ref, pool=name.startswith("pool"))
    if name == "forest_spill":
        assert res.degraded_from == "members" and not res.has_members
    if name == "shard":
        # The shard meter is per invocation: each attempt charges only
        # the shards it counted.
        assert sum(s.nodes for s in spent) == ref_ctl.spent.nodes
        assert sum(s.roots_done for s in spent) == ref_ctl.spent.roots_done
    else:
        # A replayed record is charged once: the meter is the log's.
        assert ctl.spent.nodes == ref_ctl.spent.nodes
        assert ctl.spent.roots_done == ref_ctl.spent.roots_done
        assert ctl.spent.peak_memory_bytes == ref_ctl.spent.peak_memory_bytes


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_resuming_a_complete_log_recounts_nothing(tmp_path, g, order, name):
    run = _Run(name, g, order, tmp_path)
    ctl, ref = run.attempt()
    log = run.spill / LEDGER_NAME if name == "shard" else run.path
    before = log.read_bytes()
    with obs.collecting() as reg:
        again_ctl, again = run.attempt(resume=True)
        assert reg.total("engine_roots_total") == 0
        assert reg.total("runtime_checkpoint_writes_total") == 0
    _same(again, ref, pool=name.startswith("pool"))
    assert log.read_bytes() == before
    if name != "shard":
        assert again_ctl.spent.nodes == ctl.spent.nodes


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_resume_without_a_log_is_refused(tmp_path, g, order, name):
    with pytest.raises(CheckpointError, match="cannot read progress log"):
        _Run(name, g, order, tmp_path).attempt(resume=True)


# ------------------------------------------------- the controller's log
def test_failed_autosave_keeps_its_records_for_the_next_line(tmp_path, g):
    """ENOSPC on one autosave (write op 3: header, autosave 1,
    autosave 2) is absorbed; its roots go out with the abort's line, so
    the log has no gap and the resume is bit-identical."""
    base = SCTEngine(g, core_ordering(g)).count_all()
    path = tmp_path / "ck.log"
    faults = FaultPlan(FaultSpec("io_enospc", at_op=3),
                       FaultSpec("interrupt", at_op=20))
    with obs.collecting() as reg:
        with pytest.raises(RunInterrupted):
            SCTEngine(g, core_ordering(g)).count_all(controller=RunController(
                checkpoint_path=path, faults=faults, checkpoint_every=4,
            ))
        assert reg.value("runtime_degradations_total",
                         rung="ledger_append") == 1
        # Autosaves after roots 4, 8, 12 and 16 (the second lost),
        # then the abort's line.
        assert reg.value("runtime_checkpoint_writes_total",
                         kind="progress") == 4
    records, spent, complete = read_log(path)
    assert [v for v, _ in records] == list(range(19))
    assert spent.roots_done == 19 and not complete
    ctl = RunController(checkpoint_path=path, resume=True)
    res = SCTEngine(g, core_ordering(g)).count_all(controller=ctl)
    _same(res, base, pool=False)
    assert ctl.spent.nodes == base.counters.function_calls


def test_torn_autosave_cuts_the_log_there(tmp_path, g):
    """A torn autosave (write op 3) looks written, so later lines land
    after it; replay stops at the tear and truncates, leaving the first
    autosave's roots, and the resume recounts the rest exactly."""
    base = SCTEngine(g, core_ordering(g)).count(4)
    path = tmp_path / "ck.log"
    faults = FaultPlan(FaultSpec("io_partial_write", at_op=3),
                       FaultSpec("interrupt", at_op=20))
    with pytest.raises(RunInterrupted):
        SCTEngine(g, core_ordering(g)).count(4, controller=RunController(
            checkpoint_path=path, faults=faults, checkpoint_every=4,
        ))
    records, spent, _ = read_log(path)
    assert [v for v, _ in records] == [0, 1, 2, 3]
    assert spent.roots_done == 4
    assert len(path.read_text().splitlines()) == 2
    res = SCTEngine(g, core_ordering(g)).count(
        4, controller=RunController(checkpoint_path=path, resume=True))
    _same(res, base, pool=False)


# ------------------------------------------------------------ the CLI
def _count_lines(out: str) -> list[str]:
    return [line for line in out.splitlines()
            if re.match(r"\s*(\d+-cliques|k=)", line)
            or line.startswith("batch ")]


def test_stream_resume_after_abort_in_batch_two(tmp_path, g, capsys):
    """Each batch keeps its own log, <checkpoint>.<batch>: a run
    aborted in batch 2 resumes there (batch 1's complete log replays
    without recounting) and prints what an unsupervised run prints."""
    edges = tmp_path / "g.txt"
    write_edge_list(g, edges)
    edits = tmp_path / "edits.txt"
    edits.write_text("+ 0 1\n+ 2 5\n" + "".join(
        f"+ {u} {(u * 7 + 3) % 40}\n" for u in range(14, 30)))
    base = ["stream", "--edge-list", str(edges), "--edits", str(edits),
            "-k", "4", "--batch-size", "2"]
    ck = tmp_path / "st.ck"
    assert main(base) == 0
    plain = _count_lines(capsys.readouterr().out)
    assert main(base + ["--checkpoint", str(tmp_path / "measure.ck")]) == 0
    per_batch = [int(n.replace(",", "")) for n in re.findall(
        r"budget spent: ([\d,]+) nodes", capsys.readouterr().out)]
    assert per_batch[1] > per_batch[0] > 0
    budget = ["--max-nodes", str(per_batch[0])]
    assert main(base + ["--checkpoint", str(ck)] + budget) == 3
    out = capsys.readouterr().out
    assert "batch 1:" in out and "batch 2:" not in out
    assert read_log(f"{ck}.1")[2] and not read_log(f"{ck}.2")[2]
    assert main(base + ["--checkpoint", str(ck), "--resume"]) == 0
    out = capsys.readouterr().out
    assert _count_lines(out) == plain
    # Batch 1 replayed its complete log: its meter is the logged one.
    assert re.findall(r"budget spent: ([\d,]+) nodes", out)[0] == (
        f"{per_batch[0]:,}")


def test_cli_refuses_checkpoint_with_shard_mb(tmp_path, g, capsys):
    edges = tmp_path / "g.txt"
    write_edge_list(g, edges)
    ck = tmp_path / "ck"
    assert main(["count", "--edge-list", str(edges), "-k", "4",
                 "--shard-mb", "0.01", "--spill-dir", str(tmp_path / "d"),
                 "--checkpoint", str(ck)]) == 2
    assert "checkpoint_path" in capsys.readouterr().err
    assert not ck.exists() and not (tmp_path / "d").exists()
