"""The graceful-degradation ladder.

A traffic-serving deployment cannot answer "the run died" — it answers
with the best result the budget allowed, flagged for what it is.  The
ladder this module (with the engines) implements, from least to most
lossy:

1. **budget exhaustion → root sampling** (this module).  When the
   node/deadline/memory budget dies at root ``r``, the exact per-root
   counts for roots ``< r`` are kept and the remaining roots are
   estimated with the unbiased root-sampling estimator
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
    state: dict | None,
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
    state:
        The controller's last engine snapshot (``controller.state()``);
        ``None`` means no root completed — the whole count is
        estimated.
    cause:
        The budget error being degraded away from (for the warning).

    Returns a :class:`~repro.counting.sct.CountResult` with
    ``approximate=True``, ``degraded_from`` extended with ``"exact"``,
    and the already-counted roots folded in exactly.
    """
    from repro.counting.counters import Counters
    from repro.counting.sampling import (
        sample_all_sizes_roots,
        sample_count_roots,
    )
    from repro.counting.sct import CountResult

    n = engine.graph.num_vertices
    state = state or {}
    next_root = int(state.get("next_root", 0))
    counters = Counters.from_dict(state.get("counters", {}))
    per_root_work = np.zeros(n, dtype=np.float64)
    per_root_memory = np.zeros(n, dtype=np.float64)
    if next_root:
        per_root_work[:next_root] = state.get("per_root_work", [])
        per_root_memory[:next_root] = state.get("per_root_memory", [])
    degraded_from = _join_degraded(state.get("degraded_from"), "exact")
    obs.degradation(
        "sampling", engine="sct", next_root=next_root,
        cause=type(cause).__name__ if cause is not None else None,
    )

    if k is not None:
        exact_total = int(state.get("total", 0))
        est = sample_count_roots(
            engine, k, next_root, p=p, repeats=repeats, seed=seed
        )
        count: float = float(exact_total) + est.estimate
        all_counts = None
        std_error = est.std_error
    else:
        length, _cap = engine._allk_shape(max_k)
        stored = state.get("all_counts") or [0] * length
        estimates, std_error = sample_all_sizes_roots(
            engine, next_root, max_k=max_k, p=p, repeats=repeats, seed=seed
        )
        all_counts = [float(e) + float(x) for e, x in zip(stored, estimates)]
        while len(all_counts) > 1 and all_counts[-1] == 0:
            all_counts.pop()
        count = None

    warnings.warn(
        f"budget exhausted after {next_root}/{n} exact roots"
        f"{f' ({cause})' if cause is not None else ''}; returning "
        f"root-sampled approximation (std error ~{std_error:.3g})",
        DegradedResultWarning,
        stacklevel=2,
    )
    return CountResult(
        count=count,
        all_counts=all_counts,
        k=k,
        counters=counters,
        per_root_work=per_root_work,
        per_root_memory=per_root_memory,
        structure=engine.structure.name,
        kernel=engine.kernel.name,
        approximate=True,
        degraded_from=degraded_from,
    )
