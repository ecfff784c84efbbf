"""Resilient run control: budgets, checkpoint/resume, fault injection
and graceful degradation for the counting stack.

Import order matters here: these modules are imported *by* the engines
(``repro.counting.sct`` pulls in the controller), so nothing in this
package may import ``repro.counting`` at module level.
:mod:`repro.runtime.degrade` honours that by lazy-importing the
sampling estimators inside its function body.
"""

from repro.runtime.budget import Budget, BudgetSpent
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    graph_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.controller import RunController
from repro.runtime.degrade import degrade_to_sampling
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedClock,
    ManualClock,
)

__all__ = [
    "Budget",
    "BudgetSpent",
    "CHECKPOINT_VERSION",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedClock",
    "ManualClock",
    "RunController",
    "degrade_to_sampling",
    "graph_fingerprint",
    "load_checkpoint",
    "save_checkpoint",
]
