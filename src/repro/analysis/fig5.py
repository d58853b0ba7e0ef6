"""Fig. 5 — ``Appro_Multi`` vs ``Alg_One_Server`` on random networks.

Panels (a)–(c) of the paper plot the mean operational cost of the two
algorithms against the network size (50 … 250) for increasing values of the
destination ratio ``D_max/|V|``; panels (d)–(f) plot their running times.
Each driver call reproduces one (cost, time) panel pair per configured
ratio.

Expected shape: ``Appro_Multi`` costs roughly 70–90 % of
``Alg_One_Server``, the absolute gap widens with network size, and
``Appro_Multi`` is slower (it searches ``Σ_j C(|V_S|, j)`` server
combinations).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.common import build_random_network, make_requests
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.core import alg_one_server, appro_multi
from repro.network.sdn import SDNetwork
from repro.simulation import parallel_map, run_offline
from repro.workload.request import MulticastRequest


def fig5_instance(
    profile: ExperimentProfile, ratio: float, size: int
) -> Tuple[SDNetwork, List[MulticastRequest]]:
    """The network and requests of one (ratio, size) data point.

    All randomness comes from ``seed_for``, so a second call rebuilds the
    same instance.
    """
    seed = profile.seed_for("fig5", ratio, size)
    network = build_random_network(size, seed)
    requests = make_requests(
        network.graph, profile.offline_requests, ratio, seed + 1
    )
    return network, requests


def _fig5_point(
    profile: ExperimentProfile, ratio: float, size: int
) -> Tuple[float, float, float, float]:
    """One (ratio, size) data point (see :func:`fig5_instance`)."""
    network, requests = fig5_instance(profile, ratio, size)
    appro_stats = run_offline(
        lambda net, req: appro_multi(
            net, req, max_servers=profile.max_servers
        ),
        network,
        requests,
    )
    base_stats = run_offline(alg_one_server, network, requests)
    return (
        appro_stats.mean_cost,
        appro_stats.mean_runtime,
        base_stats.mean_cost,
        base_stats.mean_runtime,
    )


def run_fig5(profile: ExperimentProfile) -> List[FigureResult]:
    """Reproduce every panel of Fig. 5 under ``profile``.

    Returns one cost panel and one running-time panel per ratio in
    ``profile.ratios``.  Data points are independent trials and run on the
    process pool (see :mod:`repro.simulation.parallel`).
    """
    grid = [
        (profile, ratio, size)
        for ratio in profile.ratios
        for size in profile.network_sizes
    ]
    points = parallel_map(_fig5_point, grid)
    by_key = {
        (ratio, size): point
        for (_, ratio, size), point in zip(grid, points)
    }

    results: List[FigureResult] = []
    for ratio in profile.ratios:
        cost_panel = FigureResult(
            figure_id=f"fig5-cost-r{ratio:g}",
            title=(
                "Operational cost, Appro_Multi vs Alg_One_Server "
                f"(D_max/|V| = {ratio:g})"
            ),
            x_label="network size |V|",
            xs=list(profile.network_sizes),
            metadata={
                "profile": profile.name,
                "requests_per_point": profile.offline_requests,
                "K": profile.max_servers,
            },
        )
        time_panel = FigureResult(
            figure_id=f"fig5-time-r{ratio:g}",
            title=(
                "Running time (s/request), Appro_Multi vs Alg_One_Server "
                f"(D_max/|V| = {ratio:g})"
            ),
            x_label="network size |V|",
            xs=list(profile.network_sizes),
            metadata={"profile": profile.name},
        )

        appro_costs, appro_times = [], []
        base_costs, base_times = [], []
        for size in profile.network_sizes:
            appro_cost, appro_time, base_cost, base_time = by_key[
                (ratio, size)
            ]
            appro_costs.append(appro_cost)
            appro_times.append(appro_time)
            base_costs.append(base_cost)
            base_times.append(base_time)

        cost_panel.add_series("Appro_Multi", appro_costs)
        cost_panel.add_series("Alg_One_Server", base_costs)
        time_panel.add_series("Appro_Multi", appro_times)
        time_panel.add_series("Alg_One_Server", base_times)
        results.extend([cost_panel, time_panel])
    return results
