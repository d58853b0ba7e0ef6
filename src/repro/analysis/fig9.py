"""Fig. 9 — ``Online_CP`` vs ``SP`` as the request count grows.

The paper sweeps the number of requests from 50 to 300 in GÉANT (a) and
AS1755 (b).  Expected shape: both algorithms admit almost everything while
the network is lightly loaded (≤ ~100 requests); beyond that ``Online_CP``
pulls ahead, and the gap widens as contention grows — the congestion-aware
cost model steers trees away from resources ``SP``'s uniform weights burn
out.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.analysis.common import (
    build_real_network,
    calibrated_online_cp,
    make_requests,
    make_sp_online,
)
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.simulation import parallel_map
from repro.stream.engine import StreamEngine
from repro.stream.workloads import SequenceStream

FIG9_TOPOLOGIES = ("GEANT", "AS1755")


def _fig9_point(
    profile: ExperimentProfile, name: str, count: int, longest: int
) -> Tuple[float, float]:
    """One (topology, request-count) data point.

    Regenerates the full ``longest``-request sequence from the same seed and
    replays its ``count``-prefix, so every point sees exactly the arrivals a
    growing monitoring period would observe — identical to slicing one
    shared list, but self-contained for the process pool.
    """
    seed = profile.seed_for("fig9", name)
    graph = build_real_network(name, seed).graph
    prefix = make_requests(graph, longest, None, seed + 1)[:count]
    cp_stats = StreamEngine(
        calibrated_online_cp(build_real_network(name, seed)),
        SequenceStream(prefix),
        clock=time.perf_counter,
    ).run()
    sp_stats = StreamEngine(
        make_sp_online(build_real_network(name, seed)),
        SequenceStream(prefix),
        clock=time.perf_counter,
    ).run()
    return (float(cp_stats.admitted), float(sp_stats.admitted))


def run_fig9(
    profile: ExperimentProfile,
    topologies: Sequence[str] = FIG9_TOPOLOGIES,
) -> List[FigureResult]:
    """Reproduce Fig. 9 for each configured real topology."""
    results: List[FigureResult] = []
    counts = list(profile.request_counts)
    longest = max(counts)
    grid = [
        (profile, name, count, longest)
        for name in topologies
        for count in counts
    ]
    points = parallel_map(_fig9_point, grid)
    by_key = {
        (name, count): point
        for (_, name, count, _), point in zip(grid, points)
    }
    for name in topologies:
        panel = FigureResult(
            figure_id=f"fig9-{name.lower()}",
            title=f"Requests admitted in {name} (Online_CP vs SP)",
            x_label="number of requests",
            xs=[float(c) for c in counts],
            metadata={"profile": profile.name},
        )
        cp_admitted, sp_admitted = [], []
        for count in counts:
            cp_adm, sp_adm = by_key[(name, count)]
            cp_admitted.append(cp_adm)
            sp_admitted.append(sp_adm)
        panel.add_series("Online_CP", cp_admitted)
        panel.add_series("SP", sp_admitted)
        results.append(panel)
    return results
