"""Resilience experiment — repair strategies under link failures (GÉANT).

An extension beyond the paper: the online model of Section V assumes the
network never breaks, but NFV-enabled multicasting is deployed on real WANs
where links fail.  This experiment drives ``Online_CP`` over a Poisson
arrival/departure workload on GÉANT, injects a seeded exponential link
failure/recovery process, and compares the three repair strategies of
:mod:`repro.resilience.repair` on the *same* workload and failure trace:

- ``drop`` — tear down every broken request (the do-nothing baseline);
- ``readmit`` — re-run ``Appro_Multi_Cap`` from scratch per broken request;
- ``graft`` — keep the surviving subtree, reconnect severed destinations
  via cheapest residual paths.

Expected shape: grafting restores service at a strictly lower mean repair
cost than full readmission (it only programs the reconnecting paths), and
both repair strategies drop far fewer requests than the baseline, so the
disruption ratio ordering is ``graft ≤ readmit < drop``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.analysis.common import build_real_network, calibrated_online_cp
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.network.controller import Controller
from repro.resilience.events import exponential_failures, horizon_of
from repro.resilience.repair import STRATEGIES, strategy_by_name
from repro.simulation import parallel_map
from repro.stream.engine import StreamEngine
from repro.stream.workloads import SequenceStream
from repro.workload.arrivals import poisson_process
from repro.workload.generator import generate_workload

#: The topology the failure study runs on.
TOPOLOGY = "GEANT"

#: Churn calibration: λ and 1/μ chosen so ~λ/μ requests are concurrently
#: installed — enough live trees that most failures break something.
ARRIVAL_RATE = 2.0
MEAN_HOLDING_TIME = 15.0

#: Failure-process calibration relative to the workload horizon ``H``:
#: a sampled link fails about ``H / (MTTF_FACTOR · H) ≈ 1.3`` times per
#: run and stays down for 4% of it, so failures are frequent enough to
#: measure repair behaviour but the network is mostly healthy.
LINK_FRACTION = 0.3
MTTF_FACTOR = 0.75
MTTR_FACTOR = 0.04


def _scenario(profile: ExperimentProfile):
    """The shared arrivals + failure schedule every strategy replays."""
    seed = profile.seed_for("resilience", TOPOLOGY)
    network = build_real_network(TOPOLOGY, seed)
    requests = generate_workload(
        network.graph, count=profile.online_requests, seed=seed + 1
    )
    workload = poisson_process(
        requests, ARRIVAL_RATE, MEAN_HOLDING_TIME, seed=seed + 2
    )
    horizon = horizon_of(workload)
    failures = exponential_failures(
        network,
        mean_time_to_failure=MTTF_FACTOR * horizon,
        mean_time_to_repair=MTTR_FACTOR * horizon,
        horizon=horizon,
        seed=seed + 3,
        links=True,
        servers=False,
        fraction=LINK_FRACTION,
    )
    return network, SequenceStream.from_events(workload), failures


def _resilience_point(
    profile: ExperimentProfile, strategy_name: str
) -> Dict[str, float]:
    """Run one repair strategy over the shared scenario."""
    network, arrivals, failures = _scenario(profile)
    engine = StreamEngine(
        calibrated_online_cp(network),
        arrivals,
        controller=Controller(),
        failures=failures,
        strategy=strategy_by_name(strategy_name),
        clock=time.perf_counter,
    )
    admitted = engine.run(drain=True).admitted
    stats = engine.failure_stats
    assert stats is not None
    return {
        "admitted": float(admitted),
        "failures": float(stats.failures),
        "broken": float(stats.broken_requests),
        "dropped": float(stats.dropped_by_failure),
        "repaired": float(stats.repaired),
        "disruption_ratio": (
            stats.dropped_by_failure / admitted if admitted else 0.0
        ),
        "mean_repair_cost": stats.mean_repair_cost,
        "total_repair_cost": float(sum(stats.repair_costs)),
        "destination_downtime": stats.destination_downtime,
        "repairs_per_failure": stats.repairs_per_failure,
    }


def run_resilience(profile: ExperimentProfile) -> List[FigureResult]:
    """Compare the repair strategies on one seeded failure scenario."""
    names = [cls.name for cls in STRATEGIES]
    grid: List[Tuple[ExperimentProfile, str]] = [
        (profile, name) for name in names
    ]
    points = parallel_map(_resilience_point, grid)
    by_name = dict(zip(names, points))

    service = FigureResult(
        figure_id="resilience-service",
        title=(
            "Service continuity under link failures "
            f"({TOPOLOGY}, Online_CP)"
        ),
        x_label="repair strategy",
        xs=list(names),
        metadata={
            "profile": profile.name,
            "topology": TOPOLOGY,
            "requests": profile.online_requests,
            "link_fraction": LINK_FRACTION,
        },
    )
    for metric in (
        "admitted", "failures", "broken", "dropped", "repaired",
        "disruption_ratio", "destination_downtime",
    ):
        service.add_series(metric, [by_name[n][metric] for n in names])

    cost = FigureResult(
        figure_id="resilience-cost",
        title="Cost of repairing failure-broken trees",
        x_label="repair strategy",
        xs=list(names),
        metadata={"profile": profile.name, "topology": TOPOLOGY},
    )
    for metric in (
        "mean_repair_cost", "total_repair_cost", "repairs_per_failure",
    ):
        cost.add_series(metric, [by_name[n][metric] for n in names])
    return [service, cost]
