"""Schedulers: conservation, balance, and the paper's sweep behavior."""

import numpy as np
import pytest

from repro.errors import ParallelModelError
from repro.parallel.sched import (
    Assignment,
    CyclicScheduler,
    DynamicScheduler,
    StaticScheduler,
)

SCHEDULERS = [StaticScheduler, CyclicScheduler, DynamicScheduler]


@pytest.fixture
def skewed_work():
    """Power-law task sizes like real per-root counting work."""
    rng = np.random.default_rng(0)
    return rng.pareto(1.5, size=500) + 0.1


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_work_conservation(cls, skewed_work):
    a = cls().assign(skewed_work, 8)
    assert a.total == pytest.approx(skewed_work.sum())


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_makespan_at_least_mean(cls, skewed_work):
    a = cls().assign(skewed_work, 8)
    assert a.makespan >= skewed_work.sum() / 8 - 1e-9


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_single_thread_gets_everything(cls, skewed_work):
    a = cls().assign(skewed_work, 1)
    assert a.makespan == pytest.approx(skewed_work.sum())
    assert a.cv == 0.0


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_more_threads_than_tasks(cls):
    a = cls().assign(np.array([1.0, 2.0]), 8)
    assert a.total == pytest.approx(3.0)
    assert a.makespan >= 2.0


def test_dynamic_beats_static_on_skew(skewed_work):
    d = DynamicScheduler().assign(skewed_work, 16)
    s = StaticScheduler().assign(skewed_work, 16)
    assert d.makespan <= s.makespan + 1e-9


def test_dynamic_near_perfect_balance(skewed_work):
    a = DynamicScheduler().assign(skewed_work, 16)
    # Greedy list scheduling: makespan <= mean + max task.
    assert a.makespan <= skewed_work.sum() / 16 + skewed_work.max() + 1e-9


def test_dynamic_cv_small_on_mild_skew():
    """The paper measures thread-time CV 0.03 at 64 threads."""
    rng = np.random.default_rng(1)
    work = rng.lognormal(0.0, 1.0, size=5000)
    a = DynamicScheduler().assign(work, 64)
    assert a.cv < 0.05


def test_cyclic_declusters_adjacent_hubs():
    work = np.zeros(100)
    work[:10] = 100.0  # hubs clustered at the front
    static = StaticScheduler().assign(work, 10)
    cyclic = CyclicScheduler().assign(work, 10)
    assert cyclic.makespan < static.makespan


def test_chunked_dynamic():
    work = np.ones(100)
    a = DynamicScheduler(chunk=10).assign(work, 4)
    assert a.total == pytest.approx(100.0)
    assert a.makespan <= 30.0


def test_assignment_properties():
    a = Assignment(loads=np.array([3.0, 1.0]))
    assert a.makespan == 3.0
    assert a.cv == pytest.approx(0.5)
    assert a.efficiency == pytest.approx(4.0 / 6.0)
    empty = Assignment(loads=np.array([]))
    assert empty.makespan == 0.0
    assert empty.cv == 0.0 and empty.efficiency == 1.0


def test_validation():
    with pytest.raises(ParallelModelError):
        StaticScheduler(chunk=0)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.array([1.0]), 0)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.array([-1.0]), 2)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.ones((2, 2)), 2)


def test_empty_work():
    for cls in SCHEDULERS:
        a = cls().assign(np.array([]), 4)
        assert a.makespan == 0.0


def _dynamic_loads_reference(work, threads, chunk):
    """The NumPy-element implementation the plain-float one replaced."""
    import heapq

    work = np.asarray(work, dtype=np.float64)
    heap = [(0.0, t) for t in range(threads)]
    heapq.heapify(heap)
    loads = np.zeros(threads, dtype=np.float64)
    for i in range(0, work.size, chunk):
        w = float(work[i:i + chunk].sum())
        load, t = heapq.heappop(heap)
        loads[t] = load + w
        heapq.heappush(heap, (loads[t], t))
    return loads


def _work_arrays():
    rng = np.random.default_rng(19)
    return {
        "random": rng.random(997) * 1e3,
        "skewed": rng.pareto(1.1, size=1500) * 1e5 + 0.3,
        "zeros": np.zeros(130),
        "empty": np.zeros(0),
    }


@pytest.mark.parametrize("kind", ["random", "skewed", "zeros", "empty"])
@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("threads", [1, 7, 64])
def test_dynamic_loads_bit_identical_to_reference(kind, chunk, threads):
    work = _work_arrays()[kind]
    got = DynamicScheduler(chunk=chunk).assign(work, threads).loads
    ref = _dynamic_loads_reference(work, threads, chunk)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
