"""The Pivoter baseline (Jain & Seshadhri), as configured in the paper.

Algorithmically Pivoter and PivotScale share the SCT recursion; what
distinguishes the baseline in the paper's comparison (Fig. 12, Table V)
is its *configuration*:

* a sequential exact core ordering (no parallel ordering phase),
* the dense ``|V|``-indexed subgraph structure (Fig. 4A),
* a naive parallelization the authors themselves describe as
  unoptimized — the paper measures < 4x counting-phase speedup on 64
  threads.

This module packages that configuration so benchmark harnesses can run
"Pivoter" and "PivotScale" side by side; the naive-parallel behavior is
expressed as a serialization fraction consumed by the machine model
(:func:`repro.parallel.simulate.simulate_counting`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.counting.sct import CountResult, SCTEngine
from repro.graph.csr import CSRGraph
from repro.ordering.base import Ordering
from repro.ordering.core import core_ordering
from repro.runtime.controller import RunController

__all__ = ["PIVOTER_SERIAL_FRACTION", "PivoterRun", "run_pivoter"]

#: Fraction of counting-phase work the naive parallel implementation
#: serializes (memory-allocator contention and shared-structure effects
#: in the original code).  1/0.27 ~ 3.7x max speedup, matching the
#: "< 4x on 64 threads" the paper measures for Pivoter's counting phase.
PIVOTER_SERIAL_FRACTION = 0.27


@dataclass
class PivoterRun:
    """A Pivoter execution: result + the ordering used (for timing)."""

    result: CountResult
    ordering: Ordering

    @property
    def serial_fraction(self) -> float:
        return PIVOTER_SERIAL_FRACTION


def run_pivoter(
    graph: CSRGraph,
    k: int,
    kernel: str | None = None,
    controller: RunController | None = None,
) -> PivoterRun:
    """Count k-cliques the way the original Pivoter release does.

    ``kernel`` names the bitset backend (``None`` or ``"bigint"``); the
    baseline's defining choices — sequential core ordering, dense
    structure, naive parallelization — are fixed.  ``controller``
    supervises the counting phase (budgets, checkpoint/resume, fault
    injection) exactly as for the SCT engine.
    """
    with obs.span("pivoter.run", engine="pivoter", k=k):
        with obs.phase("ordering"):
            ordering = core_ordering(graph)
        engine = SCTEngine(graph, ordering, structure="dense", kernel=kernel)
        return PivoterRun(
            result=engine.count(k, controller=controller), ordering=ordering
        )
