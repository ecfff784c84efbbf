"""Checkpoint/resume: a resumed all-k run is bit-identical to an
uninterrupted one, on both test backends (``tests/backends.py``) and
across multi-interrupt chains."""

import json

import numpy as np
import pytest

from repro.counting.sct import SCTEngine
from repro.errors import CheckpointError, RunInterrupted
from repro.graph.generators import erdos_renyi
from repro.ordering import core_ordering
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    RunController,
    graph_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.budget import BudgetSpent
from tests.backends import KERNEL_NAMES, backend


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
def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "ck.json"
    desc = {"engine": "sct", "k": 5}
    spent = BudgetSpent(nodes=10, seconds=1.0, peak_memory_bytes=3, roots_done=2)
    save_checkpoint(path, desc, spent, {"next_root": 2, "total": 7})
    payload = load_checkpoint(path, desc)
    assert payload["state"]["total"] == 7
    assert payload["spent"] == spent
    assert not payload["complete"]


def test_checkpoint_descriptor_mismatch(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"engine": "sct", "k": 5}, BudgetSpent(), {})
    with pytest.raises(CheckpointError, match="k"):
        load_checkpoint(path, {"engine": "sct", "k": 6})


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {}, BudgetSpent(), {})
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_atomic_no_tmp_left(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {}, BudgetSpent(), {"x": 1})
    leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.json"]
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
    # The final checkpoint is marked complete.
    assert load_checkpoint(path)["complete"]
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
    assert load_checkpoint(path)["descriptor"]["kernel"] == "bigint"
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
    ck = load_checkpoint(path)
    assert ck["descriptor"]["kernel"] == "bigint"
    ck["descriptor"]["kernel"] = "avx512"
    save_checkpoint(path, ck["descriptor"], ck["spent"], ck["state"])
    with pytest.raises(CheckpointError, match="kernel"):
        _engine(g).count_all(
            controller=RunController(checkpoint_path=path, resume=True)
        )


def test_descriptors_name_the_bigint_kernel(tmp_path, g):
    """Checkpoints, forests and shard ledgers record ``"kernel":
    "bigint"``, as files written while a second backend existed do, so
    those files keep loading and resuming."""
    from repro.counting.forest import SCTForest, load_forest
    from repro.shard import count_sharded
    from repro.shard.ledger import LEDGER_NAME

    path = tmp_path / "ck.json"
    _engine(g).count_all(controller=RunController(checkpoint_path=path))
    assert load_checkpoint(path)["descriptor"]["kernel"] == "bigint"

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
    """Without faults, the checkpoint is refreshed every
    checkpoint_every roots and finalized on success."""
    path = tmp_path / "ck.json"
    ctl = RunController(checkpoint_path=path, checkpoint_every=8)
    _engine(g).count_all(controller=ctl)
    payload = load_checkpoint(path)
    assert payload["complete"]
    assert payload["state"]["next_root"] == g.num_vertices


def test_resume_from_complete_checkpoint_is_noop(tmp_path, g):
    """Resuming a finished run does no further root work."""
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    base = _engine(g).count_all()
    ctl = RunController(checkpoint_path=path, resume=True)
    r = _engine(g).count_all(controller=ctl)
    _assert_identical(r, base)
    assert ctl.spent.nodes == base.counters.function_calls


# ------------------------------------------------- content checksums
def test_checkpoint_carries_verified_checksum(tmp_path, g):
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    payload = json.loads(path.read_text())
    assert "checksum" in payload
    load_checkpoint(path)  # verifies cleanly


def test_tampered_checkpoint_refused(tmp_path, g):
    """Any post-write bit flip — here a partial-sum tamper — fails the
    checksum before the descriptor is even looked at."""
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    payload = json.loads(path.read_text())
    payload["state"]["total"] = 12345
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(path)


def test_truncated_checkpoint_refused(tmp_path, g):
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_pre_checksum_checkpoint_still_loads(tmp_path, g):
    """Checkpoints written before the checksum existed lack the key —
    they must keep loading (forward compatibility)."""
    path = tmp_path / "ck.json"
    _engine(g).count_all(
        controller=RunController(checkpoint_path=path)
    )
    payload = json.loads(path.read_text())
    del payload["checksum"]
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    assert loaded["complete"]


def test_injected_enospc_on_save_is_checkpoint_error(tmp_path, g):
    from repro.runtime.budget import BudgetSpent as _Spent

    faults = FaultPlan(FaultSpec("io_enospc", at_op=1))
    with pytest.raises(CheckpointError, match="cannot write"):
        save_checkpoint(
            tmp_path / "ck.json", {"engine": "sct"}, BudgetSpent(),
            {"next_root": 0}, faults=faults,
        )


def test_injected_torn_checkpoint_write_detected_on_load(tmp_path, g):
    faults = FaultPlan(FaultSpec("io_partial_write", at_op=1))
    path = tmp_path / "ck.json"
    save_checkpoint(
        path, {"engine": "sct"}, BudgetSpent(), {"next_root": 3},
        faults=faults,
    )
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)
