"""Reference-normalized timing and the statistics the benchmark reports.

The host this benchmark was written on (2 vCPUs shared with other
tenants) runs a fixed pure-Python loop anywhere between ~5 and ~9 ms
from one moment to the next, switching state every few tens to hundreds
of milliseconds, so raw wall times of identical code drift by 1.6x
within a minute.  Every timed call is therefore measured against
:func:`reference_loop`, a fixed loop that is part of the benchmark, not
the program:

* the loop runs just before and just after the call, and
* a short run of the same loop is sampled every
  :data:`SAMPLE_INTERVAL_S` *during* the call (an interval-timer signal
  handler), because a sample taken only at the call's two ends misses
  the state changes inside it.

The call's time (its wall time minus the samples' own time) is then
rescaled to a nominal machine speed::

    normalized = time * NOMINAL_ITER_S / mean(per-iteration loop time)

On repeated identical ``count_cliques`` calls this cut the
call-to-call spread (coefficient of variation) from 12.5% (raw, and
equally with the before/after loops alone) to 2.9%.  Raw times are
kept beside the normalized ones, so a reader can tell host drift (raw
moves, normalized does not) from a program change (both move).
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

#: Iterations of the reference loop run before and after each call.
REF_ITERS = 20_000
#: Iterations of each in-call sample, and the sampling period.
SAMPLE_ITERS = 1_000
SAMPLE_INTERVAL_S = 0.01
#: Nominal time of one loop iteration: an uncontended core of the
#: reference host runs :data:`REF_ITERS` iterations in 5 ms.
NOMINAL_ITER_S = 0.005 / REF_ITERS

_MASK = (1 << 64) - 1


def reference_loop(iters: int = REF_ITERS) -> float:
    """Run the fixed reference loop; return its wall time in seconds.

    A 64-bit LCG with popcounts and dict stores: the same interpreter
    work (integer ops, bit counts, hashing) the program's pure-Python
    recursion spends its time on.
    """
    t0 = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    acc = 0
    slots: dict[int, int] = {}
    for i in range(iters):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc += (x >> 33).bit_count()
        slots[i & 255] = acc
    return time.perf_counter() - t0


#: Observations slower than this multiple of nominal are clipped to it:
#: such a sample was descheduled mid-loop (seen up to 30x), which says
#: nothing about the speed the program ran at.
CLIP = 4.0


def normalize(time_s: float, iter_times_s, nominal_s: float = NOMINAL_ITER_S
              ) -> float:
    """``time_s`` rescaled by the nominal over the mean observed
    per-iteration time of the reference loop."""
    cap = CLIP * nominal_s
    return time_s * nominal_s / statistics.fmean(
        min(t, cap) for t in iter_times_s)


@dataclass
class Sample:
    """One timed call: the program's time and the reference loop's
    per-iteration times observed around and during it."""

    wall_s: float
    iter_times_s: list[float] = field(default_factory=list)

    @property
    def norm_s(self) -> float:
        return normalize(self.wall_s, self.iter_times_s)

    @property
    def factor(self) -> float:
        """Multiply a raw duration inside this call by this to
        normalize it."""
        return self.norm_s / self.wall_s if self.wall_s > 0 else 1.0


def timed(fn, *args, **kwargs):
    """``(result, Sample)`` of one reference-normalized call."""
    observed = [reference_loop() / REF_ITERS]
    in_call: list[float] = []

    def sample(signum, frame):
        in_call.append(reference_loop(SAMPLE_ITERS))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    observed += [t / SAMPLE_ITERS for t in in_call]
    observed.append(reference_loop() / REF_ITERS)
    return out, Sample(wall - sum(in_call), observed)


def tail_percentile(values, min_beyond: int = 10) -> tuple[int, float]:
    """``(p, value)``: the highest whole percentile (nearest-rank) that
    has at least ``min_beyond`` samples strictly above it.

    Raises ``ValueError`` when there are too few samples for any
    percentile to qualify.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        v = xs[max(1, math.ceil(p * n / 100)) - 1]
        if sum(1 for x in xs if x > v) >= min_beyond:
            return p, v
    raise ValueError(
        f"{n} samples: no percentile has {min_beyond} samples beyond it"
    )


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(children: bool = False) -> float:
    """``getrusage`` peak RSS in MiB of this process (or of its largest
    waited-for child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0

