"""The graceful-degradation ladder.

A traffic-serving deployment cannot answer "the run died" — it answers
with the best result the budget allowed, flagged for what it is.  The
ladder this module (with the engines) implements, from least to most
lossy:

1. **budget exhaustion → root sampling** (this module).  When the
   node/deadline/memory budget dies, the exact counts of every root
   the executor finished — a prefix for the serial engine, whole
   chunks or shards for the pool and the shard executor — are kept,
   and only the other roots are estimated with the unbiased
   root-sampling estimator
   (:func:`repro.counting.sampling.sample_count_roots`), which
   composes exactly with partial progress because the SCT total is a
   sum over roots.  The folded result is flagged ``approximate``.
2. **hybrid: enumeration → pivoting.**  The hybrid driver retries an
   over-budget enumeration run with the pivoting pipeline (whose tree
   is k-insensitive) before resorting to sampling — see
   :mod:`repro.core.hybrid`.

The sampled remainder intentionally runs *outside* the exhausted
budget: it costs roughly ``p x repeats`` of the remaining exact work
(default ~256 roots per repeat), which is the price of answering at
all.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import obs
from repro.errors import BudgetExceededError, DegradedResultWarning

__all__ = ["degrade_to_sampling"]


def _join_degraded(prior: str | None, step: str) -> str:
    return step if prior is None else f"{prior},{step}"


def degrade_to_sampling(
    engine,
    *,
    k: int | None,
    max_k: int | None = None,
    partial=None,
    cause: BudgetExceededError | None = None,
    p: float | None = None,
    repeats: int = 3,
    seed: int = 0,
):
    """Fold an interrupted exact run into a flagged-approximate result.

    Parameters
    ----------
    engine:
        The :class:`~repro.counting.sct.SCTEngine` whose run blew its
        budget (per-root counting is reused for the sampled roots).
    k / max_k:
        The original request (``k=None`` = all-k).
    partial:
        The run's exact progress, a
        :class:`~repro.counting.sct.PartialCounts` — the budget error's
        ``partial``, which every executor attaches: its finished roots,
        their totals and their per-root vectors.  ``None`` means no
        root finished — the whole count is estimated.
    cause:
        The budget error being degraded away from (for the warning).

    Returns a :class:`~repro.counting.sct.CountResult` with
    ``approximate=True``, ``degraded_from`` extended with ``"exact"``,
    and the finished roots folded in exactly; only the others are
    sampled.
    """
    from repro.counting.sampling import (
        sample_all_sizes_roots,
        sample_count_roots,
    )
    from repro.counting.sct import CountResult, PartialCounts

    n = engine.graph.num_vertices
    if partial is None:
        partial = PartialCounts(n, k)
    remaining = np.flatnonzero(~partial.done)
    roots_done = n - remaining.size
    degraded_from = _join_degraded(partial.degraded_from, "exact")
    obs.degradation(
        "sampling", engine="sct", roots_done=roots_done,
        cause=type(cause).__name__ if cause is not None else None,
    )

    if k is not None:
        est = sample_count_roots(
            engine, k, remaining, p=p, repeats=repeats, seed=seed
        )
        count: float = float(partial.total) + est.estimate
        all_counts = None
        std_error = est.std_error
    else:
        length, _cap = engine._allk_shape(max_k)
        stored = partial.all_counts
        stored = stored + [0] * (length - len(stored))
        estimates, std_error = sample_all_sizes_roots(
            engine, remaining, max_k=max_k, p=p, repeats=repeats, seed=seed
        )
        all_counts = [float(e) + float(x) for e, x in zip(stored, estimates)]
        while len(all_counts) > 1 and all_counts[-1] == 0:
            all_counts.pop()
        count = None

    warnings.warn(
        f"budget exhausted after {roots_done}/{n} exact roots"
        f"{f' ({cause})' if cause is not None else ''}; returning "
        f"root-sampled approximation (std error ~{std_error:.3g})",
        DegradedResultWarning,
        stacklevel=2,
    )
    return CountResult(
        count=count,
        all_counts=all_counts,
        k=k,
        counters=partial.counters,
        per_root_work=partial.per_root_work,
        per_root_memory=partial.per_root_memory,
        structure=engine.structure.name,
        kernel=engine.kernel.name,
        approximate=True,
        degraded_from=degraded_from,
    )
