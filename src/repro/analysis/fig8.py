"""Fig. 8 — ``Online_CP`` vs ``SP`` over the network-size sweep.

The paper admits a monitoring period of 300 requests on networks of 50 to
250 switches and counts admissions.  Expected shape: ``Online_CP`` admits
more requests than ``SP`` at every size, and the admitted count is *not*
monotone in the network size (bigger networks also mean farther-apart
destinations, i.e. hungrier trees).
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.analysis.common import (
    build_random_network,
    calibrated_online_cp,
    make_requests,
    make_sp_online,
)
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.simulation import parallel_map
from repro.stream.engine import StreamEngine
from repro.stream.workloads import SequenceStream


def _fig8_point(
    profile: ExperimentProfile, size: int
) -> Tuple[float, float, float, float]:
    """One network-size data point; all randomness from ``seed_for``."""
    seed = profile.seed_for("fig8", size)
    graph = build_random_network(size, seed).graph  # topology only
    requests = make_requests(
        graph, profile.online_requests, None, seed + 1
    )
    cp = StreamEngine(
        calibrated_online_cp(build_random_network(size, seed)),
        SequenceStream(requests),
        clock=time.perf_counter,
    )
    sp = StreamEngine(
        make_sp_online(build_random_network(size, seed)),
        SequenceStream(requests),
        clock=time.perf_counter,
    )
    return (
        float(cp.run().admitted),
        float(sp.run().admitted),
        cp.decision_seconds,
        sp.decision_seconds,
    )


def run_fig8(profile: ExperimentProfile) -> List[FigureResult]:
    """Reproduce Fig. 8: admissions and deciding time per network size."""
    admitted_panel = FigureResult(
        figure_id="fig8-admitted",
        title=(
            f"Requests admitted out of {profile.online_requests} "
            "(Online_CP vs SP)"
        ),
        x_label="network size |V|",
        xs=list(profile.network_sizes),
        metadata={
            "profile": profile.name,
            "requests": profile.online_requests,
        },
    )
    time_panel = FigureResult(
        figure_id="fig8-time",
        title="Total decision time (s) over the request sequence",
        x_label="network size |V|",
        xs=list(profile.network_sizes),
        metadata={"profile": profile.name},
    )

    grid = [(profile, size) for size in profile.network_sizes]
    points = parallel_map(_fig8_point, grid)

    cp_admitted, sp_admitted, cp_times, sp_times = [], [], [], []
    for cp_adm, sp_adm, cp_time, sp_time in points:
        cp_admitted.append(cp_adm)
        sp_admitted.append(sp_adm)
        cp_times.append(cp_time)
        sp_times.append(sp_time)

    admitted_panel.add_series("Online_CP", cp_admitted)
    admitted_panel.add_series("SP", sp_admitted)
    time_panel.add_series("Online_CP", cp_times)
    time_panel.add_series("SP", sp_times)
    return [admitted_panel, time_panel]
