"""Failure injection and multicast tree repair (``repro.resilience``).

Extends the online simulations with link/server failures and compares
strategies for repairing the pseudo-multicast trees they break:

- :mod:`repro.resilience.events` — seeded failure/recovery event streams
  that interleave with the workload's arrivals and departures;
- :mod:`repro.resilience.impact` — which installed requests a failure
  breaks, and how (severed destinations vs. severed service chains);
- :mod:`repro.resilience.repair` — ``DropAffected`` / ``FullReadmit`` /
  ``SubtreeGraft`` repair strategies over the residual network.

The simulation driver is :class:`repro.stream.engine.StreamEngine` (its
``failures`` / ``strategy`` arguments); the GEANT
experiment comparing the strategies is ``repro.analysis.resilience``
(CLI: ``python -m repro.cli resilience``).  See ``docs/RESILIENCE.md``.
"""

from repro.resilience.events import (
    ElementKind,
    FailureEvent,
    apply_event,
    deterministic_schedule,
    exponential_failures,
    link_failure,
    link_recovery,
    server_failure,
    server_recovery,
)
from repro.resilience.impact import (
    ImpactReport,
    affected_request_ids,
    check_residual_consistency,
    classify_impact,
    processed_reachable,
)
from repro.resilience.repair import (
    STRATEGIES,
    ActiveRequest,
    DropAffected,
    FullReadmit,
    RepairAction,
    RepairContext,
    RepairResult,
    RepairStrategy,
    SubtreeGraft,
    strategy_by_name,
)

__all__ = [
    "ActiveRequest",
    "DropAffected",
    "ElementKind",
    "FailureEvent",
    "FullReadmit",
    "ImpactReport",
    "RepairAction",
    "RepairContext",
    "RepairResult",
    "RepairStrategy",
    "STRATEGIES",
    "SubtreeGraft",
    "affected_request_ids",
    "apply_event",
    "check_residual_consistency",
    "classify_impact",
    "deterministic_schedule",
    "exponential_failures",
    "link_failure",
    "link_recovery",
    "processed_reachable",
    "server_failure",
    "server_recovery",
    "strategy_by_name",
]
