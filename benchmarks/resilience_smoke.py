"""CI smoke driver for the resilience acceptance criteria.

Runs, against the DBLP analog, the two behaviors the robustness work
guarantees (see docs/robustness.md):

1. a fault-injected all-k run, interrupted mid-run and resumed from
   its checkpoint, lands on bit-identical counts, work counters and
   per-root arrays;
2. a run whose node budget is exhausted with ``degrade`` enabled
   returns a result flagged ``approximate`` with the exactly-counted
   roots folded in, instead of raising.

Exits nonzero on any violation.  Usage::

    PYTHONPATH=src python benchmarks/resilience_smoke.py
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.core import PivotScaleConfig, count_cliques
from repro.counting.sct import SCTEngine
from repro.datasets import load
from repro.errors import DegradedResultWarning, RunInterrupted
from repro.ordering import core_ordering
from repro.runtime import FaultPlan, FaultSpec, RunController


def check_resume_bit_identical(g, at_op: int) -> None:
    order = core_ordering(g)
    base = SCTEngine(g, order).count_all()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.ck.json"
        ctl = RunController(
            checkpoint_path=path,
            faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)),
        )
        try:
            SCTEngine(g, order).count_all(controller=ctl)
        except RunInterrupted:
            pass
        else:
            raise AssertionError("injected interrupt did not fire")
        assert ctl.spent.roots_done == at_op - 1

        resumed = RunController(checkpoint_path=path, resume=True)
        r = SCTEngine(g, order).count_all(controller=resumed)

    assert r.all_counts == base.all_counts, "resumed counts differ"
    assert r.counters.as_dict() == base.counters.as_dict(), (
        "resumed work counters differ"
    )
    assert np.array_equal(r.per_root_work, base.per_root_work)
    assert np.array_equal(r.per_root_memory, base.per_root_memory)
    assert resumed.spent.nodes == base.counters.function_calls
    print(
        f"  interrupted at root {at_op}, resumed "
        f"{g.num_vertices - at_op + 1} roots -> bit-identical "
        f"(k_max={len(base.all_counts) - 1}, "
        f"nodes={base.counters.function_calls:,.0f})"
    )


def check_degrade_flagged(g, k: int, max_nodes: int) -> None:
    cfg = PivotScaleConfig(max_nodes=max_nodes, degrade=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        r = count_cliques(g, k, cfg)
    assert r.approximate, "degraded result not flagged approximate"
    assert r.degraded_from == "exact"
    assert r.budget_spent is not None and r.budget_spent.nodes > max_nodes
    assert isinstance(r.count, float) and r.count >= 0.0
    exact = count_cliques(g, k).count
    print(
        f"  k={k}, max_nodes={max_nodes:,}: ~{r.count:,.0f} "
        f"(exact {exact:,}) after {r.budget_spent.roots_done} exact roots, "
        f"degraded from {r.degraded_from!r}"
    )


def main() -> None:
    g = load("dblp")
    print(f"dblp analog: n={g.num_vertices}, m={g.num_edges}")

    print("interrupt -> resume round-trip:")
    check_resume_bit_identical(g, at_op=g.num_vertices // 2)

    print("budget exhaustion -> flagged approximate:")
    check_degrade_flagged(g, k=6, max_nodes=2000)

    print("resilience smoke OK")


if __name__ == "__main__":
    main()
