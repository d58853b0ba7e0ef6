"""Result records for offline runs and for online runs with failures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class OfflineRunStats:
    """Aggregates for a batch of single-request solves (Figs. 5–7).

    Attributes:
        solved: how many requests produced a tree.
        infeasible: how many requests had no feasible tree (capacitated
            runs only; always 0 in the uncapacitated figures).
        costs: per-request operational cost of the returned tree.
        runtimes: per-request wall-clock solve time in seconds.
        servers_used: per-request number of servers in the returned tree.
        telemetry: counter deltas accumulated during this run (empty when
            :mod:`repro.obs` recording is disabled) — solver invocations,
            cache hits/misses, KMB calls, and friends.
    """

    solved: int = 0
    infeasible: int = 0
    costs: List[float] = field(default_factory=list)
    runtimes: List[float] = field(default_factory=list)
    servers_used: List[int] = field(default_factory=list)
    telemetry: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_cost(self) -> float:
        """Average operational cost over solved requests (0 if none)."""
        return sum(self.costs) / len(self.costs) if self.costs else 0.0

    @property
    def mean_runtime(self) -> float:
        """Average per-request solve time in seconds (0 if none)."""
        return sum(self.runtimes) / len(self.runtimes) if self.runtimes else 0.0

    @property
    def total_runtime(self) -> float:
        """Total solve time in seconds."""
        return sum(self.runtimes)

    @property
    def mean_servers_used(self) -> float:
        """Average number of servers per tree (the paper's ``l``)."""
        if not self.servers_used:
            return 0.0
        return sum(self.servers_used) / len(self.servers_used)


@dataclass
class ResilienceRunStats:
    """Failure-side aggregates of an online run with a failure schedule.

    :class:`~repro.stream.engine.StreamEngine` fills one as
    ``engine.failure_stats`` when it is given a failure schedule; the
    admission side (admitted, rejected, digest) stays in its
    :class:`~repro.stream.engine.StreamStats`.

    Attributes:
        failures: failure events that actually took an element down.
        recoveries: recovery events that actually brought one back.
        broken_requests: installed requests whose service a failure broke
            (counted once per disruption; a request can be broken — and
            repaired — multiple times over its lifetime).
        repairs: histogram of repair outcomes, keyed by
            ``RepairAction.value`` (``"dropped"`` / ``"readmitted"`` /
            ``"grafted"``).
        repair_costs: cost of each successful repair — the resources the
            strategy (re)programmed (drops contribute nothing here).
        destination_downtime: total destination-time lost to drops: each
            dropped request contributes ``|D_k| × (service end − drop
            time)``, where service end is its departure time (or the run
            horizon if it never departs).
    """

    failures: int = 0
    recoveries: int = 0
    broken_requests: int = 0
    repairs: Dict[str, int] = field(default_factory=dict)
    repair_costs: List[float] = field(default_factory=list)
    destination_downtime: float = 0.0

    def record_repair(self, action_value: str) -> None:
        """Bump the repair-outcome histogram."""
        self.repairs[action_value] = self.repairs.get(action_value, 0) + 1

    @property
    def dropped_by_failure(self) -> int:
        """Broken requests that ended up dropped instead of repaired."""
        return self.repairs.get("dropped", 0)

    @property
    def repaired(self) -> int:
        """Broken requests whose service was restored (graft or readmit)."""
        return self.repairs.get("grafted", 0) + self.repairs.get(
            "readmitted", 0
        )

    @property
    def mean_repair_cost(self) -> float:
        """Average cost of a successful repair (0 when none happened)."""
        if not self.repair_costs:
            return 0.0
        return sum(self.repair_costs) / len(self.repair_costs)

    @property
    def repairs_per_failure(self) -> float:
        """Successful repairs per effective failure event."""
        return self.repaired / self.failures if self.failures else 0.0
