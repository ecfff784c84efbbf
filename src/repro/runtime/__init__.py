"""Resilient run control: budgets, the progress log (checkpoint/resume),
fault injection and graceful degradation for the counting stack.

Import order matters here: these modules are imported *by* the engines
(``repro.counting.sct`` pulls in the controller), so nothing in this
package may import ``repro.counting`` at module level.
:mod:`repro.runtime.degrade` honours that by lazy-importing the
sampling estimators inside its function body.
"""

from repro.runtime.budget import Budget, BudgetSpent
from repro.runtime.controller import RunController
from repro.runtime.degrade import degrade_to_sampling
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedClock,
    ManualClock,
)
from repro.runtime.progress import (
    PROGRESS_VERSION,
    Codec,
    ProgressLog,
    graph_fingerprint,
)

__all__ = [
    "Budget",
    "BudgetSpent",
    "Codec",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedClock",
    "ManualClock",
    "PROGRESS_VERSION",
    "ProgressLog",
    "RunController",
    "degrade_to_sampling",
    "graph_fingerprint",
]
