"""Task schedulers for the simulated executor.

The counting phase is vertex-parallel: one task per root vertex, with
heavily skewed task sizes (a hub's SCT subtree dwarfs a leaf's).  The
paper sweeps "task granularity (chunk sizes) and scheduler types
(static, dynamic, cyclic)" and finds load balance is a minor factor
(thread-time CV 0.03 at 64 threads); these schedulers let the harness
reproduce that sweep.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelModelError

__all__ = [
    "Assignment",
    "Scheduler",
    "StaticScheduler",
    "CyclicScheduler",
    "DynamicScheduler",
]


@dataclass(frozen=True)
class Assignment:
    """Result of distributing tasks over threads.

    Attributes
    ----------
    loads:
        Per-thread summed work.
    makespan:
        The bottleneck thread's load — what the parallel phase waits on.
    """

    loads: np.ndarray

    @property
    def makespan(self) -> float:
        return float(self.loads.max()) if self.loads.size else 0.0

    @property
    def total(self) -> float:
        return float(self.loads.sum())

    @property
    def cv(self) -> float:
        """Coefficient of variation of thread loads (paper reports
        0.03 for the counting phase at 64 threads)."""
        mean = self.loads.mean() if self.loads.size else 0.0
        if mean == 0:
            return 0.0
        return float(self.loads.std() / mean)

    @property
    def efficiency(self) -> float:
        """Perfect-balance work over makespan x threads."""
        if self.makespan == 0 or self.loads.size == 0:
            return 1.0
        return self.total / (self.makespan * self.loads.size)


class Scheduler(abc.ABC):
    """Distributes an ordered task-work array over ``threads``."""

    name: str = "base"

    def __init__(self, chunk: int = 1) -> None:
        if chunk < 1:
            raise ParallelModelError("chunk size must be >= 1")
        self.chunk = chunk

    @abc.abstractmethod
    def assign(self, work: np.ndarray, threads: int) -> Assignment:
        """Return per-thread loads for the given task sizes."""

    def _check(self, work: np.ndarray, threads: int) -> np.ndarray:
        if threads < 1:
            raise ParallelModelError("threads must be >= 1")
        work = np.asarray(work, dtype=np.float64)
        if work.ndim != 1:
            raise ParallelModelError("work must be a 1-D array")
        if work.size and work.min() < 0:
            raise ParallelModelError("task work must be non-negative")
        return work

    def _chunks(self, n: int) -> list[slice]:
        return [slice(i, min(i + self.chunk, n)) for i in range(0, n, self.chunk)]


class StaticScheduler(Scheduler):
    """OpenMP ``schedule(static)``: contiguous blocks of ~n/T tasks.

    Cheap but skew-sensitive: if the heavy hubs cluster in one block,
    one thread carries them all.
    """

    name = "static"

    def assign(self, work: np.ndarray, threads: int) -> Assignment:
        work = self._check(work, threads)
        loads = np.zeros(threads, dtype=np.float64)
        bounds = np.linspace(0, work.size, threads + 1).astype(np.int64)
        for t in range(threads):
            loads[t] = work[bounds[t] : bounds[t + 1]].sum()
        return Assignment(loads=loads)


class CyclicScheduler(Scheduler):
    """OpenMP ``schedule(static, chunk)``: chunks dealt round-robin.

    De-clusters hubs at the cost of locality; the default chunk of 1
    is pure cyclic.
    """

    name = "cyclic"

    def assign(self, work: np.ndarray, threads: int) -> Assignment:
        work = self._check(work, threads)
        loads = np.zeros(threads, dtype=np.float64)
        for i, sl in enumerate(self._chunks(work.size)):
            loads[i % threads] += work[sl].sum()
        return Assignment(loads=loads)


class DynamicScheduler(Scheduler):
    """OpenMP ``schedule(dynamic, chunk)``: next chunk to the first
    idle thread — greedy list scheduling, modeled with an
    earliest-finishing-thread heap.  PivotScale's default.
    """

    name = "dynamic"

    def assign(self, work: np.ndarray, threads: int) -> Assignment:
        work = self._check(work, threads)
        # Plain floats throughout: a one-task chunk's sum is the task
        # itself, and larger chunks keep NumPy's sums.
        if self.chunk == 1:
            sizes = work.tolist()
        else:
            sizes = [float(work[sl].sum()) for sl in self._chunks(work.size)]
        heap = [(0.0, t) for t in range(threads)]
        heapq.heapify(heap)
        loads = [0.0] * threads
        for w in sizes:
            load, t = heapq.heappop(heap)
            loads[t] = load = load + w
            heapq.heappush(heap, (load, t))
        return Assignment(loads=np.array(loads, dtype=np.float64))
