"""Deterministic fault injection and the degradation ladder: memory
faults (at a root tick or inside a root's recursion), kernel faults
(raised, never swallowed), clock jumps, interrupts, and
budget-exhaustion root sampling."""

import warnings
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import PivotScaleConfig, count_cliques
from repro.core.hybrid import count_cliques_hybrid
from repro.counting.forest import SCTForest
from repro.counting.sct import SCTEngine
from repro.errors import (
    CountingError,
    DeadlineExceededError,
    DegradedResultWarning,
    MemoryBudgetExceededError,
    RunInterrupted,
)
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list
from repro import kernels
from repro.counting import arbcount, profiles
from repro.counting.arbcount import count_kcliques_enumeration
from repro.counting.peredge import per_edge_counts
from repro.counting.pervertex import per_vertex_counts
from repro.counting.profiles import per_vertex_profiles
from repro.ordering import core_ordering
from repro.runtime import (
    Budget,
    FaultPlan,
    FaultSpec,
    ManualClock,
    RunController,
    load_checkpoint,
)


#: The program's own scan and descent, captured before any test
#: replaces them.
_pivot_select = kernels.pivot_select
_count_root = arbcount._count_root


@pytest.fixture
def g():
    return erdos_renyi(40, 0.3, seed=11)


# ----------------------------------------------------------- fault specs
def test_fault_spec_validation():
    for kind in ("nonsense", "kernel"):
        with pytest.raises(CountingError, match="unknown fault kind"):
            FaultSpec(kind, at_op=1)
    with pytest.raises(CountingError):
        FaultSpec("memory", at_op=0)
    with pytest.raises(CountingError):
        FaultSpec("clock_jump", at_op=1)  # needs jump_seconds > 0


def test_fault_plan_fires_each_spec_once():
    plan = FaultPlan(FaultSpec("memory", at_op=2))
    plan.tick()
    with pytest.raises(MemoryError):
        plan.tick()
    plan.tick()  # does not re-fire
    assert plan.ops == 3


def test_clock_jump_advances_injected_clock():
    clock = ManualClock()
    plan = FaultPlan(FaultSpec("clock_jump", at_op=1, jump_seconds=30.0))
    plan.tick(clock)
    assert clock() == pytest.approx(30.0)


# -------------------------------------------------- engine-level faults
def test_memory_fault_becomes_budget_error(g):
    ctl = RunController(faults=FaultPlan(FaultSpec("memory", at_op=3)))
    eng = SCTEngine(g, core_ordering(g))
    with pytest.raises(MemoryBudgetExceededError) as ei:
        eng.count(4, controller=ctl)
    assert ei.value.spent.roots_done == 2  # two roots folded before op 3


def test_clock_jump_trips_deadline(g):
    clock = ManualClock()
    ctl = RunController(
        Budget(deadline_seconds=60.0),
        faults=FaultPlan(FaultSpec("clock_jump", at_op=5, jump_seconds=120.0)),
        clock=clock,
    )
    eng = SCTEngine(g, core_ordering(g))
    with pytest.raises(DeadlineExceededError):
        eng.count(4, controller=ctl)
    assert ctl.spent.roots_done == 4


def test_interrupt_propagates(g):
    ctl = RunController(faults=FaultPlan(FaultSpec("interrupt", at_op=2)))
    with pytest.raises(RunInterrupted):
        SCTEngine(g, core_ordering(g)).count(4, controller=ctl)
    # The tick comes before a root's walk: interrupted at the first root
    # (out-degree 8), the loop scans no pivot.
    counter = _FailingPivot()
    ctl = RunController(faults=FaultPlan(FaultSpec("interrupt", at_op=1)))
    with counter.installed(), pytest.raises(RunInterrupted):
        SCTEngine(g, core_ordering(g)).count(4, controller=ctl)
    assert counter.calls == 0


class _FailingPivot:
    """The program's pivot scan, with its ``fail_at``-th call raising
    ``error`` — by default ``MemoryError``, an allocation failure inside
    a root's recursion rather than at a root tick (``fail_at=None``
    counts calls and never fails).  :meth:`installed` puts it in place
    of :func:`repro.kernels.pivot_select`, which every walker binds
    once per root."""

    def __init__(self, fail_at=None, error=MemoryError):
        self.fail_at = fail_at
        self.error = error
        self.calls = 0

    def __call__(self, rows, P, pc):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error("injected kernel failure")
        return _pivot_select(rows, P, pc)

    @contextmanager
    def installed(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "pivot_select", self)
            yield self


def test_kernel_fault_without_degrade_raises(g):
    # A kernel op failing inside the recursion surfaces unchanged.
    fp = _FailingPivot(fail_at=2, error=RuntimeError)
    with fp.installed(), pytest.raises(
            RuntimeError, match="injected kernel failure"):
        SCTEngine(g, core_ordering(g)).count(4, controller=RunController())
    assert fp.calls == 2


def test_bigint_kernel_fault_not_swallowed(g):
    """The ladder has no rung below the one backend: with degradation
    on, a kernel fault is still raised, not sampled or retried away."""
    fp = _FailingPivot(fail_at=100, error=RuntimeError)
    with fp.installed(), pytest.raises(
            RuntimeError, match="injected kernel failure"):
        SCTEngine(g, core_ordering(g)).count(
            4, controller=RunController(degrade=True))
    assert fp.calls == 100


#: A batch that dirties roots 0, 3, 8, 13, 16, 22 and 39 of ``g``.
_EDITS = [("-", 0, 1), ("-", 3, 21), ("-", 8, 34), ("-", 14, 39),
          ("+", 0, 2), ("+", 4, 16), ("+", 8, 22), ("+", 13, 22)]


def _edit_batch(g, o):
    forest = SCTForest.build(g, o)

    def go(ctl):
        edited = forest.copy()
        edited.apply_edits(_EDITS, controller=ctl)
        return edited

    return go


#: Each run's set-up (not metered), returning the run under a controller.
_RECURSION_RUNS = {
    "count": lambda g, o: lambda ctl: SCTEngine(g, o).count(
        4, controller=ctl),
    "count_all": lambda g, o: lambda ctl: SCTEngine(g, o).count_all(
        controller=ctl),
    "forest": lambda g, o: lambda ctl: SCTForest.build(
        g, o, controller=ctl),
    "apply_edits": _edit_batch,
}


def _same_run(a, b):
    """Bit-identical results: count or row, Counters, per-root vectors,
    and a forest's arrays."""
    assert a.counters.as_dict() == b.counters.as_dict()
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)
    if isinstance(a, SCTForest):
        for name in ("held_n", "pivot_n", "roots", "held_members",
                     "pivot_members", "per_root_recursion"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    else:
        assert (a.count, a.all_counts) == (b.count, b.all_counts)


@pytest.mark.parametrize("run", sorted(_RECURSION_RUNS))
def test_allocation_failure_in_recursion_resumes_bit_identical(
        tmp_path, g, run):
    go = _RECURSION_RUNS[run](g, core_ordering(g))
    counter = _FailingPivot()
    with counter.installed():
        base = go(None)
    path = tmp_path / "ck.json"
    ctl = RunController(checkpoint_path=path)
    with _FailingPivot(fail_at=counter.calls // 2).installed(), \
            pytest.raises(MemoryBudgetExceededError, match="at root") as ei:
        go(ctl)
    # The checkpoint holds exactly the whole roots before the faulting
    # one, as the unfaulted run counted them.
    v = int(str(ei.value).rsplit(" ", 1)[1])
    state = load_checkpoint(path)["state"]
    if run == "apply_edits":
        done = state["roots"]
        assert 0 < len(done) == state["next_index"] == ctl.spent.roots_done
        assert done == sorted(done) and done[-1] < v
        assert state["recursion"] == base.per_root_recursion[done].tolist()
        assert [len(leaves) for leaves in state["leaves"]] == [
            np.count_nonzero(base.roots == r) for r in done]
    else:
        assert 0 < v < g.num_vertices
        assert state["next_root"] == v == ctl.spent.roots_done
        assert state["per_root_work"] == base.per_root_work[:v].tolist()
        assert state["per_root_memory"] == base.per_root_memory[:v].tolist()
    resumed = go(RunController(checkpoint_path=path, resume=True))
    _same_run(resumed, base)


class _FailingDescent:
    """Enumeration's descent with its ``fail_at``-th root raising
    ``MemoryError`` inside the root (enumeration scans no pivots)."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        if self.calls == self.fail_at:
            raise MemoryError("injected descent failure")
        return _count_root(*args)


def _profiles(g, o, controller=None):
    # Profiles take no controller; hand one to the attribution loop.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "walk_roots",
                   partial(profiles.walk_roots, controller=controller))
        return per_vertex_profiles(g, o)


#: Each attribution loop and enumeration under an optional controller,
#: with the fault that fails it inside a root.
_ROOT_FAULT_RUNS = {
    "per_vertex": (lambda g, o, ctl: per_vertex_counts(
        g, 4, o, controller=ctl), _FailingPivot),
    "per_edge": (lambda g, o, ctl: per_edge_counts(
        g, 3, o, controller=ctl), _FailingPivot),
    "profiles": (lambda g, o, ctl: _profiles(g, o, ctl), _FailingPivot),
    "enumeration": (lambda g, o, ctl: count_kcliques_enumeration(
        g, 4, o, controller=ctl).count, _FailingDescent),
}


@contextmanager
def _installed(fault):
    if isinstance(fault, _FailingPivot):
        with fault.installed():
            yield
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arbcount, "_count_root", fault)
            yield


@pytest.mark.parametrize("run", sorted(_ROOT_FAULT_RUNS))
def test_allocation_failure_in_attribution_is_a_budget_error(g, run):
    """Every root loop turns an allocation failure inside a root into
    the budget error the others raise when a controller is attached, so
    the CLI exits 3 with the controller's spend; without one the
    failure surfaces unchanged."""
    go, fault = _ROOT_FAULT_RUNS[run]
    o = core_ordering(g)
    counter = fault()
    with _installed(counter):
        base = go(g, o, None)
    with _installed(fault(fail_at=counter.calls // 2)), \
            pytest.raises(MemoryBudgetExceededError, match="at root") as ei:
        go(g, o, RunController())
    assert ei.value.spent is not None and ei.value.spent.nodes > 0
    assert isinstance(ei.value.__cause__, MemoryError)
    # Without a controller the allocation failure surfaces unchanged.
    with _installed(fault(fail_at=counter.calls // 2)), \
            pytest.raises(MemoryError, match="injected"):
        go(g, o, None)
    assert go(g, o, None) == base


# --------------------------------- rung 1: budget -> sampling (flagged)
def test_degrade_to_sampling_flagged(g):
    cfg = PivotScaleConfig(max_nodes=60, degrade=True)
    with pytest.warns(DegradedResultWarning):
        r = count_cliques(g, 4, cfg)
    assert r.approximate
    assert r.degraded_from == "exact"
    assert r.budget_spent is not None and r.budget_spent.nodes > 60
    exact = count_cliques(g, 4).count
    # Exactly-counted roots are folded in; the estimate is unbiased,
    # not exact — sanity-bound it rather than equality-check it.
    assert r.count >= 0
    assert isinstance(r.count, float)
    assert exact > 0


#: Every executor the pipeline dispatches to, as pipeline knobs.
_EXECUTORS = {
    "serial": lambda tmp: {},
    "pool": lambda tmp: {"processes": 2},
    "shard": lambda tmp: {"shard_mb": 0.002, "spill_dir": str(tmp)},
}


def _exhaust(executor, eng, k, tmp_path):
    """Run ``eng``'s count (``k=None``: all-k) on ``executor`` under a
    node budget of half the run; return the exact progress the budget
    error carries."""
    from repro.errors import NodeBudgetExceededError
    from repro.parallel.runtime import parallel_count
    from repro.shard import count_sharded

    full = eng.count(k) if k is not None else eng.count_all()
    ctl = RunController(
        Budget(max_nodes=full.counters.function_calls // 2), degrade=True
    )
    with pytest.raises(NodeBudgetExceededError) as ei:
        if executor == "pool":
            parallel_count(eng.graph, eng.dag, k=k, processes=2,
                           controller=ctl)
        elif executor == "shard":
            count_sharded(eng.graph, eng.dag, k=k, controller=ctl,
                          **_EXECUTORS["shard"](tmp_path / f"s{k}"))
        elif k is not None:
            eng.count(k, controller=ctl)
        else:
            eng.count_all(controller=ctl)
    # The partial holds exactly the roots the controller completed.
    done = ei.value.partial.done.sum()
    assert 0 < done == ctl.spent.roots_done < eng.graph.num_vertices
    return ei.value.partial


def test_degrade_folds_exact_progress(g, tmp_path):
    """With p=1 sampling over the remainder, degrade reproduces the
    exact total on every executor: the exact partial the budget error
    carries, plus exhaustive 'sampling' of the roots it leaves out."""
    from repro.runtime.degrade import degrade_to_sampling

    eng = SCTEngine(g, core_ordering(g))
    exact = count_cliques(g, 4).count
    for executor in _EXECUTORS:
        partial = _exhaust(executor, eng, 4, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            r = degrade_to_sampling(
                eng, k=4, partial=partial, p=1.0, repeats=1
            )
        assert r.approximate
        assert r.count == float(exact), executor


def test_degrade_all_k_with_p1(g, tmp_path):
    from repro.runtime.degrade import degrade_to_sampling

    base = SCTEngine(g, core_ordering(g)).count_all()
    eng = SCTEngine(g, core_ordering(g))
    for executor in _EXECUTORS:
        partial = _exhaust(executor, eng, None, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            r = degrade_to_sampling(
                eng, k=None, partial=partial, p=1.0, repeats=1
            )
        assert r.approximate
        assert [float(c) for c in base.all_counts] == r.all_counts, executor


@pytest.mark.parametrize("executor", sorted(_EXECUTORS))
def test_degraded_run_keeps_finished_roots(g, tmp_path, executor):
    """A budget abort under ``degrade`` keeps every root the executor
    finished: the degraded result's per-root vectors equal the exact
    run's there, and only the other roots are sampled."""
    exact = count_cliques(g, 4, PivotScaleConfig(ordering="core")).counting
    cfg = PivotScaleConfig(
        ordering="core", degrade=True,
        max_nodes=exact.counters.function_calls // 2,
        **_EXECUTORS[executor](tmp_path / "spill"),
    )
    with pytest.warns(DegradedResultWarning):
        r = count_cliques(g, 4, cfg)
    assert r.approximate
    got = r.counting
    kept = got.per_root_work != 0
    assert kept.any()
    for vec in ("per_root_work", "per_root_memory"):
        assert np.array_equal(getattr(got, vec)[kept],
                              getattr(exact, vec)[kept]), vec
    # Every finished root kept its vectors (a root the exact run
    # charges no work to reads 0 either way).
    idle = np.count_nonzero(exact.per_root_work == 0)
    assert kept.sum() <= r.budget_spent.roots_done <= kept.sum() + idle


# ----------------------------- rung 2: hybrid enumeration -> pivoting
def test_hybrid_retries_pivoting_on_enum_budget(g):
    cfg = PivotScaleConfig(max_nodes=40, degrade=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        r = count_cliques_hybrid(g, 4, switch_k=8, config=cfg)
    # Enumeration blew the 40-node budget; the hybrid fell through to
    # the pivoting pipeline (which may itself have degraded further).
    assert r.algorithm == "pivoting"
    assert r.degraded_from is not None
    assert r.degraded_from.startswith("enumeration")


def test_hybrid_no_degrade_raises(g):
    from repro.errors import NodeBudgetExceededError

    cfg = PivotScaleConfig(max_nodes=40)
    with pytest.raises(NodeBudgetExceededError):
        count_cliques_hybrid(g, 4, switch_k=8, config=cfg)


# ----------------------------------------------------------------- CLI
def test_cli_budget_exit_code(tmp_path, g, capsys):
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    code = cli_main(
        ["count", "--edge-list", str(path), "-k", "4", "--max-nodes", "10"]
    )
    assert code == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_cli_degrade_flag(tmp_path, g, capsys):
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        code = cli_main(
            ["count", "--edge-list", str(path), "-k", "4",
             "--max-nodes", "10", "--degrade"]
        )
    assert code == 0
    out = capsys.readouterr().out
    assert "approximate" in out
    assert "budget spent" in out
