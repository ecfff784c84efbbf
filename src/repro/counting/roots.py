"""The root loop — paper Algorithm 1, line 4 — written once.

Every engine here is a map over root vertices followed by an exact
reduce (Finocchi et al., "Clique counting in MapReduce"): a per-root
function walks one root's induced subgraph, and a fold adds what it
found into the run's totals.  :func:`run_roots` is that loop for every
serial engine — SCT counting, the forest builds, the dirty-root
recompute of an edit batch, the attribution walks and enumeration.
An engine supplies its per-root function and its fold, and keeps its
checkpoint state and its span; the loop owns the protocol between
them (``docs/algorithm.md``, "Root decomposition").
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro import kernels, obs
from repro.counting.counters import Counters
from repro.counting.structures.base import RootContext, SubgraphStructure
from repro.errors import MemoryBudgetExceededError
from repro.runtime.controller import RunController

__all__ = ["run_roots"]


def run_roots(
    struct: SubgraphStructure,
    roots,
    visit: Callable[[int, RootContext | None], tuple],
    fold: Callable[[int, tuple], None],
    totals: Counters,
    *,
    engine: str,
    controller: RunController | None = None,
    guard: bool = True,
    calls: list[int] | None = None,
    skip: Callable[[np.ndarray], np.ndarray] | None = None,
    memo: dict | None = None,
    memo_max: int = 0,
    node_memo: list[int] | None = None,
) -> None:
    """Visit and fold every root of ``roots``, in order.

    ``roots`` is an int64 array, a range or a list of ints (a list is
    walked as given).  ``visit(v, ctx)`` walks root ``v`` over the
    context ``build_many`` induced for it (``None`` for a root the
    engine charges unbuilt: ``skip`` maps the roots' array to that
    mask) and returns the root's record, a tuple whose first two fields
    are the nodes it visited and its modeled peak bytes.
    ``fold(v, record)`` adds the record into the engine's state; it may
    raise a budget error of its own before it changes anything.

    With a ``memo``, a block root whose packed rows are stored folds
    the stored record unvisited, and a visited one is stored while the
    memo holds fewer than ``memo_max``.  A ``controller`` is ticked
    before each root and charged the record's nodes and bytes before
    its fold; ``guard`` wraps the loop in its
    :meth:`~repro.runtime.RunController.guard` (the engine owns the
    checkpoints).  An allocation failure inside a root becomes a
    :class:`~repro.errors.MemoryBudgetExceededError` carrying the
    spend when there is a controller, and surfaces raw without one.
    On the way out, abort or not, the loop notes the peak bytes of
    ``totals`` (the engine's running :class:`Counters`, which its folds
    fill) to the profiler and publishes ``totals`` with the roots folded
    here, under ``engine``; the root memo's hits and misses with
    ``node_memo``, the ``[hits, misses]`` of the visits' own memo; and
    ``calls``, the kernel-call tally the visits derive.
    """
    ctl = controller
    order = np.asarray(roots, dtype=np.int64)
    mask = np.zeros(order.size, dtype=bool) if skip is None else skip(order)
    ctxs = struct.build_many(order[~mask], memo)
    unbuilt = mask.tolist()
    context = RootContext
    hits = misses = done = 0
    try:
        with ctl.guard() if guard and ctl is not None else nullcontext():
            for i, v in enumerate(
                    roots if isinstance(roots, list) else order.tolist()):
                try:
                    if ctl is not None:
                        ctl.tick()
                    if unbuilt[i]:
                        record = visit(v, None)
                    else:
                        ctx = next(ctxs)
                        if type(ctx) is not context:  # a stored record
                            hits += 1
                            record = ctx
                        else:
                            record = visit(v, ctx)
                            if ctx.key is not None:
                                misses += 1
                                if len(memo) < memo_max:
                                    memo[ctx.key] = record
                except MemoryError as exc:
                    if ctl is None:
                        raise
                    raise MemoryBudgetExceededError(
                        f"allocation failure at root {v}",
                        spent=ctl.spent_snapshot(),
                    ) from exc
                if ctl is not None:
                    ctl.charge_nodes(record[0])
                    ctl.note_memory(record[1])
                fold(v, record)
                done += 1
                if ctl is not None:
                    ctl.complete_root(v)
    finally:
        obs.note_memory(totals.peak_subgraph_bytes)
        labels = {
            "engine": engine, "structure": struct.name,
            "kernel": kernels.NAME,
        }
        obs.record_run(totals, roots=done, **labels)
        if memo is not None:
            obs.record_memo(hits, misses, *(node_memo or (0, 0)), **labels)
        obs.record_kernel_calls(calls)
