"""Differential + integration suite for the process-parallel runtime.

The SCT total is a sum of independent per-root partial sums, so the
parallel backend must be *bit-identical* to the serial engine — not
statistically close.  This suite checks that over the shared 40-graph
corpus on both start methods, and exercises
the runtime's integration contracts: controller budgets and
checkpoint/resume at chunk granularity, the worker-crash degradation
rung (deterministic fault injection), per-worker metrics merging, and
the one-task-per-chunk dispatch that keeps scheduling dynamic.
"""

import os

import numpy as np
import pytest

from tests.corpus import GRAPHS, IDS, ordering
from repro import obs
from repro.counting.forest import build_forest
from repro.counting.pervertex import per_vertex_counts
from repro.counting.sct import SCTEngine
from repro.errors import (
    NodeBudgetExceededError,
    ParallelModelError,
    WorkerCrashError,
)
from repro.graph.generators import erdos_renyi
from repro.ordering import core_ordering
from repro.parallel import (
    ParallelRuntime,
    build_forest_processes,
    count_all_sizes_processes,
    count_kcliques_processes,
    per_vertex_counts_processes,
    plan_chunks,
)
from repro.parallel.shm import attach_graph_pair, publish_graph_pair
from repro.runtime import Budget, RunController

SUBSET = [0, 7, 16, 23, 29, 37]  # one or two per generator family


@pytest.fixture(scope="module")
def rt_fork():
    """One persistent fork pool shared by the whole module (pool
    startup would otherwise dominate 40 tiny graphs)."""
    with ParallelRuntime(2, start_method="fork") as rt:
        yield rt


@pytest.fixture(scope="module")
def rt_spawn():
    with ParallelRuntime(2, start_method="spawn") as rt:
        yield rt


# ----------------------------------------------------------------------
# every pool entry point, one contract: (pool run, serial run, what must match)
# ----------------------------------------------------------------------
def _forest_state(f):
    return (
        [a.tolist() for a in (f.roots, f.held_n, f.pivot_n,
                              f.held_members, f.pivot_members)],
        [v.tolist() for v in (f.per_root_work, f.per_root_memory,
                              f.per_root_recursion)],
        f.counters.function_calls,
    )


POOL_MODES = {
    "count": (
        lambda g, o, **kw: count_kcliques_processes(
            g, 3, o, processes=2, **kw),
        lambda g, o: SCTEngine(g, o).count(3),
        lambda r: (r.count, r.counters.function_calls,
                   r.per_root_work.tolist(), r.per_root_memory.tolist()),
    ),
    "allk": (
        lambda g, o, **kw: count_all_sizes_processes(
            g, o, processes=2, **kw),
        lambda g, o: SCTEngine(g, o).count_all(),
        lambda r: (r.all_counts, r.counters.function_calls,
                   r.per_root_work.tolist(), r.per_root_memory.tolist()),
    ),
    "pervertex": (
        lambda g, o, **kw: per_vertex_counts_processes(
            g, 3, o, processes=2, **kw),
        lambda g, o: per_vertex_counts(g, 3, o),
        lambda r: r,
    ),
    "forest": (
        lambda g, o, **kw: build_forest_processes(g, o, processes=2, **kw),
        lambda g, o: build_forest(g, o),
        _forest_state,
    ),
}

#: The worker task of each pool mode (see ``runtime._execute_mode``).
_TASKS = {
    "count": {"mode": "count", "k": 3, "max_k": None},
    "allk": {"mode": "count", "k": None, "max_k": None},
    "pervertex": {"mode": "pervertex", "k": 3},
    "forest": {"mode": "forest", "members": True},
}


def _degraded_from(result):
    # Per-vertex counts are a bare list and carry no flag.
    return getattr(result, "degraded_from", None)


# ----------------------------------------------------------------------
# corpus differential: parallel == serial, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_corpus_fork_matches_serial(name, g, rt_fork):
    o = ordering(name, g)
    serial = SCTEngine(g, o).count(3)
    got = count_kcliques_processes(g, 3, o, processes=2, runtime=rt_fork)
    assert got.count == serial.count
    assert got.counters.function_calls == serial.counters.function_calls
    assert np.array_equal(got.per_root_work, serial.per_root_work)
    serial_all = SCTEngine(g, o).count_all()
    got_all = count_all_sizes_processes(g, o, processes=2, runtime=rt_fork)
    assert got_all.all_counts == serial_all.all_counts


def test_corpus_spawn_matches_serial(rt_spawn):
    # spawn re-imports the worker module from scratch — the start
    # method real deployments use on macOS/Windows.  One persistent
    # pool over the full corpus keeps this affordable; one per-vertex
    # and one forest run cover the other worker modes.
    for name, g in GRAPHS:
        o = ordering(name, g)
        serial = SCTEngine(g, o).count(3).count
        got = count_kcliques_processes(
            g, 3, o, processes=2, runtime=rt_spawn
        ).count
        assert got == serial, name
    name, g = GRAPHS[2]
    o = ordering(name, g)
    for mode in ("pervertex", "forest"):
        run, serial, state = POOL_MODES[mode]
        assert state(run(g, o, runtime=rt_spawn)) == state(serial(g, o)), mode


@pytest.mark.slow
@pytest.mark.parametrize("procs", (1, 2, 4))
def test_process_count_sweep(procs):
    for idx in SUBSET[:3]:
        name, g = GRAPHS[idx]
        o = ordering(name, g)
        serial = SCTEngine(g, o).count(4).count
        assert count_kcliques_processes(
            g, 4, o, processes=procs
        ).count == serial, name


def test_per_vertex_matches_serial(rt_fork):
    for idx in SUBSET:
        name, g = GRAPHS[idx]
        o = ordering(name, g)
        assert per_vertex_counts_processes(
            g, 3, o, processes=2, runtime=rt_fork
        ) == per_vertex_counts(g, 3, o), name


def test_forest_matches_serial(rt_fork):
    for idx in SUBSET[:3]:
        name, g = GRAPHS[idx]
        o = ordering(name, g)
        f_s = build_forest(g, o)
        f_p = build_forest_processes(g, o, processes=2, runtime=rt_fork)
        assert np.array_equal(f_s.roots, f_p.roots), name
        assert np.array_equal(f_s.held_n, f_p.held_n), name
        assert np.array_equal(f_s.pivot_n, f_p.pivot_n), name
        assert np.array_equal(f_s.held_members, f_p.held_members), name
        assert np.array_equal(f_s.pivot_members, f_p.pivot_members), name
        for vec in ("per_root_work", "per_root_memory",
                    "per_root_recursion"):
            assert np.array_equal(getattr(f_s, vec), getattr(f_p, vec)), name
        assert f_s.count_all() == f_p.count_all(), name


# ----------------------------------------------------------------------
# obs integration: merged worker counters == serial counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", sorted(POOL_MODES))
def test_worker_metrics_sum_to_serial(rt_fork, mode):
    # Every chunk is its own root-subgraph memo scope, so kernel calls
    # depend on the chunk plan: the serial reference runs the pool's
    # plan in-process, one worker task per chunk.
    from repro.ordering.directionalize import directionalize
    from repro.parallel.runtime import _execute_mode

    name, g = GRAPHS[2]
    o = ordering(name, g)
    dag = directionalize(g, o)
    with obs.collecting() as reg_s:
        engine = SCTEngine(g, dag)
        for chunk in plan_chunks(dag.degrees, 2, 4):
            _execute_mode(dict(_TASKS[mode], roots=chunk.tolist()),
                          engine, g)
    run = POOL_MODES[mode][0]
    # Metrics-on tasks run on each worker's cached engine: a second
    # run on the same pool must report exactly what the first did.
    for _ in range(2):
        with obs.collecting() as reg_p:
            run(g, o, runtime=rt_fork)
        for metric in ("engine_nodes_visited_total", "kernel_calls_total",
                       "engine_roots_total"):
            assert reg_p.total(metric) == reg_s.total(metric), metric
        for op in ("alloc_rows", "load_rows", "pivot_select",
                   "intersect_count"):
            labels = {"kernel": "bigint", "op": op}
            assert (reg_p.value("kernel_calls_total", **labels)
                    == reg_s.value("kernel_calls_total", **labels)), op
    assert reg_s.value("kernel_calls_total", kernel="bigint",
                       op="pivot_select") > 0


# ----------------------------------------------------------------------
# runtime/controller integration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", sorted(POOL_MODES))
def test_budget_enforced_at_chunk_granularity(mode):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    ctl = RunController(Budget(max_nodes=1))
    with pytest.raises(NodeBudgetExceededError):
        POOL_MODES[mode][0](g, o, controller=ctl)
    # The chunk that crossed the budget was metered, never folded.
    assert ctl.spent.nodes > 1
    assert ctl.spent.roots_done == 0


def test_checkpoint_resume_bit_identical(tmp_path):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    serial = SCTEngine(g, o).count(3)
    ckpt = str(tmp_path / "par.ckpt")
    ctl = RunController(
        Budget(max_nodes=serial.counters.function_calls // 2),
        checkpoint_path=ckpt,
    )
    with pytest.raises(NodeBudgetExceededError):
        count_kcliques_processes(g, 3, o, processes=2, controller=ctl)
    resumed = RunController(checkpoint_path=ckpt, resume=True)
    got = count_kcliques_processes(g, 3, o, processes=2, controller=resumed)
    assert got.count == serial.count
    assert got.counters.function_calls == serial.counters.function_calls
    assert np.array_equal(got.per_root_work, serial.per_root_work)
    assert resumed.spent.roots_done == g.num_vertices


@pytest.mark.parametrize("mode", sorted(POOL_MODES))
def test_worker_crash_raises_without_degrade(rt_fork, mode):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    with pytest.raises(WorkerCrashError):
        POOL_MODES[mode][0](g, o, runtime=rt_fork, fault_chunks={0})


@pytest.mark.parametrize("mode", sorted(POOL_MODES))
def test_worker_crash_degrades_to_exact_retry(rt_fork, mode):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    run, serial, state = POOL_MODES[mode]
    got = run(g, o, runtime=rt_fork, degrade=True, fault_chunks={0, 1})
    # The retry rung re-runs the dead chunks in-process on the bigint
    # reference backend: the result stays exact, only the flag records
    # that workers died.
    assert state(got) == state(serial(g, o))
    if mode != "pervertex":
        assert _degraded_from(got) == "worker"


# ----------------------------------------------------------------------
# dispatch regression: every chunk must be its own pool task
# ----------------------------------------------------------------------
def test_each_chunk_is_its_own_task(monkeypatch):
    # Regression for the old ``pool.map(fn, chunks)`` dispatch: map's
    # default chunksize heuristic re-batches consecutive chunks onto
    # one worker, silently undoing chunks_per_process oversubscription.
    import multiprocessing.pool as mpool

    captured = {}
    orig = mpool.Pool.imap_unordered

    def spy(self, func, iterable, chunksize=1):
        tasks = list(iterable)
        captured["chunksize"] = chunksize
        captured["num_tasks"] = len(tasks)
        return orig(self, func, tasks, chunksize)

    monkeypatch.setattr(mpool.Pool, "imap_unordered", spy)
    g = erdos_renyi(40, 0.2, seed=7)
    o = core_ordering(g)
    serial = SCTEngine(g, o).count(3).count
    got = count_kcliques_processes(
        g, 3, o, processes=2, chunks_per_process=5
    )
    assert got.count == serial
    assert captured["chunksize"] == 1
    assert captured["num_tasks"] == 10  # processes * chunks_per_process


# ----------------------------------------------------------------------
# chunk planner properties
# ----------------------------------------------------------------------
def test_plan_chunks_covers_each_root_exactly_once():
    rng = np.random.default_rng(11)
    for n, procs, cpp in ((1, 2, 4), (5, 2, 4), (37, 3, 4), (200, 4, 7)):
        degrees = rng.integers(0, 50, size=n)
        chunks = plan_chunks(degrees, procs, cpp)
        assert all(c.size > 0 for c in chunks)
        assert len(chunks) == min(n, procs * cpp)
        flat = np.sort(np.concatenate(chunks))
        assert np.array_equal(flat, np.arange(n))


def test_plan_chunks_spreads_heavy_head():
    # Guided self-scheduling: with a sharply skewed degree sequence the
    # heaviest root must not share its chunk with the whole tail.
    degrees = np.array([100] + [1] * 63)
    chunks = plan_chunks(degrees, 2, 4)
    heavy = next(c for c in chunks if 0 in c)
    assert heavy.size < len(degrees) // 2


def test_plan_chunks_empty_and_validation():
    assert plan_chunks(np.zeros(0, dtype=np.int64), 2, 4) == []
    with pytest.raises(ParallelModelError):
        plan_chunks(np.ones(4), 0, 4)
    with pytest.raises(ParallelModelError):
        plan_chunks(np.ones(4), 2, 0)


# ----------------------------------------------------------------------
# shared-memory round trip
# ----------------------------------------------------------------------
def test_shared_graph_pair_round_trip():
    from repro.ordering.directionalize import directionalize

    g = erdos_renyi(30, 0.2, seed=3)
    dag = directionalize(g, core_ordering(g))
    with publish_graph_pair(g, dag) as shared:
        g2, dag2, shm = attach_graph_pair(shared.spec)
        try:
            assert np.array_equal(g2.indptr, g.indptr)
            assert np.array_equal(g2.indices, g.indices)
            assert np.array_equal(dag2.indptr, dag.indptr)
            assert np.array_equal(dag2.indices, dag.indices)
            assert dag2.directed and not g2.directed
        finally:
            del g2, dag2
            shm.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
def test_worker_attachment_eviction_closes_segments(monkeypatch):
    """A worker caches its last few attachments; evicting one must
    unmap it and close its descriptor even though the evicted graphs
    (and the engine built on them) were in use."""
    import sys

    from repro.ordering.directionalize import directionalize
    from repro.parallel import runtime

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)
    monkeypatch.setattr(runtime, "_ATTACHED", type(runtime._ATTACHED)())
    monkeypatch.setattr(runtime, "_ENGINES", type(runtime._ENGINES)())
    live = runtime._WORKER_CACHE_MAX
    pairs = []
    for seed in range(live + 3):
        g = erdos_renyi(30, 0.2, seed=seed)
        dag = directionalize(g, core_ordering(g))
        pairs.append(publish_graph_pair(g, dag))
    try:
        before = open_fds()
        per_attachment = None
        for shared in pairs:
            graph, dag = runtime._attach(shared.spec)
            task = {"spec": shared.spec, "structure": "remap",
                    "kernel": "bigint"}
            runtime._cached_engine(task, graph, dag).count(3)
            del graph, dag
            if per_attachment is None:
                per_attachment = open_fds() - before
        assert per_attachment >= 1
        assert len(runtime._ATTACHED) == live
        assert open_fds() - before == live * per_attachment
        for name in list(runtime._ATTACHED):
            runtime._detach(name)
        assert open_fds() == before
    finally:
        for shared in pairs:
            shared.unlink()
    assert raised == []


# ----------------------------------------------------------------------
# bounded worker-crash retries (the rung before degradation)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", sorted(POOL_MODES))
def test_transient_crash_recovered_by_retry(rt_fork, mode):
    """A chunk that crashes once and succeeds on resubmission keeps the
    result exact and *unflagged* — no degradation rung, one retry
    metered."""
    name, g = GRAPHS[2]
    o = ordering(name, g)
    run, serial, state = POOL_MODES[mode]
    with obs.collecting() as reg:
        got = run(
            g, o, runtime=rt_fork,
            fault_chunks={0: 1},  # transient: crash the 1st attempt only
        )
        retries = reg.counter("runtime_worker_retries").value
    assert state(got) == state(serial(g, o))
    assert _degraded_from(got) is None
    assert retries == 1


def test_retries_exhausted_then_degrade(rt_fork):
    """fail_count > retries: the pool gives up and the in-process
    degradation rung takes over (exact, flagged)."""
    name, g = GRAPHS[2]
    o = ordering(name, g)
    serial = SCTEngine(g, o).count(3)
    got = count_kcliques_processes(
        g, 3, o, processes=2, runtime=rt_fork, degrade=True,
        fault_chunks={0: 5}, worker_retries=2,
    )
    assert got.count == serial.count
    assert got.degraded_from == "worker"


def test_zero_retries_restores_old_behavior(rt_fork):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    with pytest.raises(WorkerCrashError, match="after 1 attempts"):
        count_kcliques_processes(
            g, 3, o, processes=2, runtime=rt_fork,
            fault_chunks={0: 1}, worker_retries=0,
        )


def test_retry_backoff_deterministic(rt_fork, monkeypatch):
    from repro.parallel import runtime as prt

    def run(seed):
        delays = []
        monkeypatch.setattr(prt, "_sleep", delays.append)
        name, g = GRAPHS[2]
        o = ordering(name, g)
        count_kcliques_processes(
            g, 3, o, processes=2, runtime=rt_fork,
            fault_chunks={0: 2}, worker_retries=2,
            retry_backoff=0.01, retry_seed=seed,
        )
        return delays

    first, again, reseeded = run(9), run(9), run(10)
    assert len(first) == 2
    assert all(d > 0 for d in first)
    assert first == again
    assert reseeded != first


def test_allk_transient_crash_recovered(rt_fork):
    name, g = GRAPHS[2]
    o = ordering(name, g)
    serial = SCTEngine(g, o).count_all()
    got = count_all_sizes_processes(
        g, o, processes=2, runtime=rt_fork, fault_chunks={1: 1},
    )
    assert got.all_counts == serial.all_counts
    assert got.degraded_from is None
