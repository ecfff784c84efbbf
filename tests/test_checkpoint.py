"""Checkpoint/resume through the progress log: a resumed all-k run is
bit-identical to an uninterrupted one, on both test backends
(``tests/backends.py``) and across multi-interrupt chains, and the log
file refuses what it cannot trust."""

import json

import numpy as np
import pytest

from repro import obs
from repro.counting.sct import SCTEngine
from repro.errors import CheckpointError, RunInterrupted
from repro.graph.generators import erdos_renyi
from repro.ordering import core_ordering
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    ProgressLog,
    RunController,
    graph_fingerprint,
    progress,
)
from repro.runtime.budget import BudgetSpent
from tests.backends import KERNEL_NAMES, backend
from tests.logs import read_log


@pytest.fixture
def g():
    return erdos_renyi(50, 0.25, seed=23)


def _engine(g):
    return SCTEngine(g, core_ordering(g))


def _assert_identical(a, b):
    """Bit-identical CountResults: counts, counters, per-root arrays."""
    assert a.count == b.count
    assert a.all_counts == b.all_counts
    assert a.counters.as_dict() == b.counters.as_dict()
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)


# ------------------------------------------------------- file round-trip
def _restamp_header(path, **changes):
    """Rewrite the log's header with ``changes`` and a valid checksum,
    as a file written by another run would carry."""
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["checksum"]
    for key, value in changes.items():
        if key == "descriptor":
            header["descriptor"] = dict(header["descriptor"], **value)
        else:
            header[key] = value
    path.write_text(progress._stamped(header) + "".join(lines[1:]))


def _header(path):
    return json.loads(path.read_text().splitlines()[0])


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ck.log"
    desc = {"engine": "sct", "k": 5}
    spent = BudgetSpent(nodes=10, seconds=1.0, peak_memory_bytes=3, roots_done=2)
    log = ProgressLog.create(path, desc)
    log.append({"records": [[0, [1, 2.5]]], "spent": spent.as_dict(),
                "complete": False})
    log.append({"records": [[1, [3, 0.1]]], "spent": spent.as_dict(),
                "complete": True})
    _, lines = ProgressLog.replay(path, desc)
    assert [line["records"] for line in lines] == [[[0, [1, 2.5]]],
                                                   [[1, [3, 0.1]]]]
    assert BudgetSpent.from_dict(lines[-1]["spent"]) == spent
    assert lines[-1]["complete"] and not lines[0]["complete"]


def test_checkpoint_descriptor_mismatch(tmp_path):
    path = tmp_path / "ck.log"
    ProgressLog.create(path, {"engine": "sct", "k": 5})
    with pytest.raises(CheckpointError, match="k"):
        ProgressLog.replay(path, {"engine": "sct", "k": 6})


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "ck.log"
    ProgressLog.create(path, {})
    _restamp_header(path, version=999)
    with pytest.raises(CheckpointError, match="version 999"):
        ProgressLog.replay(path, {})


def test_checkpoint_atomic_no_tmp_left(tmp_path):
    path = tmp_path / "ck.log"
    ProgressLog.create(path, {}).append({"x": 1})
    leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.log"]
    assert leftovers == []


def test_graph_fingerprint_distinguishes(g):
    other = erdos_renyi(50, 0.25, seed=24)
    assert graph_fingerprint(g) != graph_fingerprint(other)
    assert graph_fingerprint(g) == graph_fingerprint(g)


def test_resume_against_wrong_graph_fails(tmp_path, g):
    path = tmp_path / "ck.json"
    ctl = RunController(
        checkpoint_path=path,
        faults=FaultPlan(FaultSpec("interrupt", at_op=10)),
    )
    with pytest.raises(RunInterrupted):
        _engine(g).count_all(controller=ctl)
    other = erdos_renyi(50, 0.25, seed=24)
    with pytest.raises(CheckpointError):
        _engine(other).count_all(
            controller=RunController(checkpoint_path=path, resume=True)
        )


# ------------------------------------------------ interrupt -> resume
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("at_op", [1, 7, 25, 49])
def test_allk_resume_bit_identical(tmp_path, g, kernel, at_op):
    """Interrupt an all-k run at several points; the resumed run's
    counts, counters AND per-root work arrays match an uninterrupted
    run exactly."""
    with backend(kernel):
        base = _engine(g).count_all()
        path = tmp_path / "ck.json"
        ctl = RunController(
            checkpoint_path=path,
            faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)),
        )
        with pytest.raises(RunInterrupted):
            _engine(g).count_all(controller=ctl)
        assert ctl.spent.roots_done == at_op - 1

        resumed_ctl = RunController(checkpoint_path=path, resume=True)
        r = _engine(g).count_all(controller=resumed_ctl)
    _assert_identical(r, base)
    # The final line is marked complete.
    assert read_log(path)[2]
    # Work accounting spans both attempts without double counting.
    total_roots = ctl.spent.roots_done + (
        resumed_ctl.spent.roots_done - ctl.spent.roots_done
    )
    assert resumed_ctl.spent.roots_done == g.num_vertices
    assert total_roots == g.num_vertices
    assert resumed_ctl.spent.nodes == base.counters.function_calls


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_fixed_k_resume_bit_identical(tmp_path, g, kernel):
    with backend(kernel):
        base = _engine(g).count(5)
        path = tmp_path / "ck.json"
        ctl = RunController(
            checkpoint_path=path,
            faults=FaultPlan(FaultSpec("interrupt", at_op=20)),
        )
        with pytest.raises(RunInterrupted):
            _engine(g).count(5, controller=ctl)
        r = _engine(g).count(
            5, controller=RunController(checkpoint_path=path, resume=True)
        )
    _assert_identical(r, base)


def test_multi_interrupt_chain(tmp_path, g):
    """Kill the run three times at different points; each resume picks
    up the chain and the final result is still bit-identical."""
    base = _engine(g).count_all()
    path = tmp_path / "ck.json"
    ops = [5, 9, 3]  # ops are counted per attempt, from each resume point
    resume = False
    r = None
    for at_op in ops + [None]:
        faults = (
            FaultPlan(FaultSpec("interrupt", at_op=at_op))
            if at_op is not None
            else None
        )
        ctl = RunController(
            checkpoint_path=path, resume=resume, faults=faults
        )
        if at_op is not None:
            with pytest.raises(RunInterrupted):
                _engine(g).count_all(controller=ctl)
        else:
            r = _engine(g).count_all(controller=ctl)
        resume = True
    _assert_identical(r, base)


def test_resume_across_kernel_backends(tmp_path, g):
    """Counters do not depend on how the pivot scan or the row loader
    is implemented, and a checkpoint names the one backend however its
    run scanned: a run interrupted with the word-array test backend
    swapped in resumes on the program's own bit-identically to a clean
    run."""
    base = _engine(g).count_all()
    path = tmp_path / "ck.json"
    ctl = RunController(
        checkpoint_path=path,
        faults=FaultPlan(FaultSpec("interrupt", at_op=20)),
    )
    with backend("wordarray"), pytest.raises(RunInterrupted):
        _engine(g).count_all(controller=ctl)
    assert _header(path)["descriptor"]["kernel"] == "bigint"
    r = _engine(g).count_all(
        controller=RunController(checkpoint_path=path, resume=True)
    )
    _assert_identical(r, base)


def test_resume_refuses_another_kernel(tmp_path, g):
    """The descriptor pins the kernel: a checkpoint naming another
    backend is refused, not resumed on whatever runs now."""
    path = tmp_path / "ck.json"
    ctl = RunController(
        checkpoint_path=path,
        faults=FaultPlan(FaultSpec("interrupt", at_op=20)),
    )
    with pytest.raises(RunInterrupted):
        _engine(g).count_all(controller=ctl)
    assert _header(path)["descriptor"]["kernel"] == "bigint"
    _restamp_header(path, descriptor={"kernel": "avx512"})
    with pytest.raises(CheckpointError, match="kernel"):
        _engine(g).count_all(
            controller=RunController(checkpoint_path=path, resume=True)
        )


def test_descriptors_name_the_bigint_kernel(tmp_path, g):
    """Progress logs, forests and shard ledgers record ``"kernel":
    "bigint"``, as files written while a second backend existed do, so
    such forests keep loading."""
    from repro.counting.forest import SCTForest, load_forest
    from repro.shard import count_sharded
    from repro.shard.executor import LEDGER_NAME

    path = tmp_path / "ck.json"
    _engine(g).count_all(controller=RunController(checkpoint_path=path))
    assert _header(path)["descriptor"]["kernel"] == "bigint"

    forest = SCTForest.build(g, core_ordering(g))
    assert forest.descriptor["kernel"] == "bigint"
    forest.save(tmp_path / "forest.npz")
    loaded = load_forest(tmp_path / "forest.npz", g)
    assert loaded.descriptor["kernel"] == "bigint"

    spill = tmp_path / "spill"
    count_sharded(g, core_ordering(g), k=4, shard_mb=512 / (1 << 20),
                  spill_dir=spill)
    header = json.loads((spill / LEDGER_NAME).read_text().splitlines()[0])
    assert header["descriptor"]["kernel"] == "bigint"


def test_periodic_autosave(tmp_path, g):
    """Without faults, the log gains one line every checkpoint_every
    roots and a final complete one, and holds every root once, in
    order."""
    path = tmp_path / "ck.json"
    ctl = RunController(checkpoint_path=path, checkpoint_every=8)
    _engine(g).count_all(controller=ctl)
    records, spent, complete = read_log(path)
    assert complete
    assert [v for v, _ in records] == list(range(g.num_vertices))
    assert spent.roots_done == g.num_vertices
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + g.num_vertices // 8 + 1  # header, autosaves, final


def test_resume_from_complete_checkpoint_is_noop(tmp_path, g):
    """Resuming a finished run visits no root and appends nothing."""
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    before = path.read_bytes()
    base = _engine(g).count_all()
    ctl = RunController(checkpoint_path=path, resume=True)
    with obs.collecting() as reg:
        r = _engine(g).count_all(controller=ctl)
        assert reg.total("engine_roots_total") == 0
    _assert_identical(r, base)
    assert ctl.spent.nodes == base.counters.function_calls
    assert path.read_bytes() == before


# ------------------------------------------------- content checksums
def test_checkpoint_carries_verified_checksum(tmp_path, g):
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("checksum" in line for line in lines)
    _, replayed = ProgressLog.replay(path, {})  # verifies cleanly
    assert len(replayed) == len(lines) - 1


def test_tampered_checkpoint_refused(tmp_path, g):
    """A bit flip in the header — here the pinned k — fails its
    checksum, and the log is refused before any descriptor check."""
    path = tmp_path / "ck.json"
    _engine(g).count(4, controller=RunController(checkpoint_path=path))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"k": 4', b'"k": 5', 1))
    with pytest.raises(CheckpointError, match="header"):
        _engine(g).count(
            5, controller=RunController(checkpoint_path=path, resume=True)
        )


def test_truncated_checkpoint_refused(tmp_path, g):
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    header = path.read_bytes().split(b"\n")[0]
    path.write_bytes(header[: len(header) // 2])
    with pytest.raises(CheckpointError, match="header"):
        ProgressLog.replay(path, {})


def test_json_checkpoint_from_older_release_refused(tmp_path, g):
    """Whole-state JSON checkpoints and version-1 shard ledgers from
    older releases are refused by name, not migrated, and left as they
    are."""
    path = tmp_path / "ck.json"
    old = {"version": 1, "complete": False, "descriptor": {"engine": "sct"},
           "spent": {}, "state": {"next_root": 3}, "checksum": "0" * 16}
    path.write_text(json.dumps(old))
    with pytest.raises(CheckpointError, match="whole-state JSON checkpoint"):
        _engine(g).count_all(
            controller=RunController(checkpoint_path=path, resume=True)
        )
    assert json.loads(path.read_text()) == old
    ledger = tmp_path / "ledger.jsonl"
    ProgressLog.create(ledger, {"engine": "sct-shard"})
    _restamp_header(ledger, version=1)
    with pytest.raises(CheckpointError, match="version 1"):
        ProgressLog.replay(ledger, {"engine": "sct-shard"})


def test_injected_enospc_on_save_is_checkpoint_error(tmp_path, g):
    """A log whose header cannot be written is an error (write op 1);
    a later line that fails is absorbed (see tests/test_progress.py)."""
    faults = FaultPlan(FaultSpec("io_enospc", at_op=1))
    with pytest.raises(CheckpointError, match="cannot create"):
        _engine(g).count_all(controller=RunController(
            checkpoint_path=tmp_path / "ck.json", faults=faults,
        ))


def test_injected_torn_checkpoint_write_detected_on_load(tmp_path, g):
    """A torn line (write op 2, the first autosave) is detected on
    replay: the log is cut back to the header, and the resume recounts
    every root to the uninterrupted result."""
    path = tmp_path / "ck.json"
    faults = FaultPlan(FaultSpec("io_partial_write", at_op=2),
                       FaultSpec("interrupt", at_op=30))
    with pytest.raises(RunInterrupted):
        _engine(g).count_all(controller=RunController(
            checkpoint_path=path, faults=faults, checkpoint_every=8,
        ))
    assert read_log(path)[0] == []
    assert len(path.read_text().splitlines()) == 1
    r = _engine(g).count_all(
        controller=RunController(checkpoint_path=path, resume=True)
    )
    _assert_identical(r, _engine(g).count_all())
