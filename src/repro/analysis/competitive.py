"""Empirical competitive-ratio study (extension experiment).

Theorem 2 bounds ``Online_CP`` against the *optimal offline* algorithm,
which is NP-hard to compute.  This study measures the empirical ratio
against a strong offline oracle that sees the whole request sequence in
advance:

- **offline oracle** — sorts all requests by resource footprint
  (`b_k · (|D_k| + 1) +` normalized compute) so small requests are packed
  first, then admits greedily with the capacitated solver.  Greedy
  smallest-first packing with full lookahead is a classic upper-bound proxy
  for offline admission (it is not OPT, but it dominates any online
  algorithm on these workloads in practice).

The resulting ``admitted(online) / admitted(oracle)`` curves put the
``O(log |V|)`` guarantee in empirical context: the measured ratio should sit
far above the worst-case bound.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.analysis.common import (
    build_random_network,
    calibrated_online_cp,
    make_requests,
    make_sp_online,
)
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.core import appro_multi_cap, try_allocate
from repro.exceptions import InfeasibleRequestError
from repro.network.sdn import SDNetwork
from repro.stream.engine import StreamEngine
from repro.stream.workloads import SequenceStream
from repro.workload.request import MulticastRequest


def offline_oracle_admissions(
    network: SDNetwork,
    requests: Sequence[MulticastRequest],
    max_servers: int = 1,
) -> int:
    """Greedy smallest-footprint-first offline admission; returns the count.

    The network is mutated (resources committed); pass a fresh instance.
    """
    def footprint(request: MulticastRequest) -> float:
        compute_share = request.compute_demand / 40.0  # MHz ≈ Mbps scale
        return request.bandwidth * (request.num_destinations + 1) + compute_share

    admitted = 0
    for request in sorted(requests, key=footprint):
        try:
            tree = appro_multi_cap(network, request, max_servers=max_servers)
        except InfeasibleRequestError:
            continue
        if try_allocate(network, tree) is not None:
            admitted += 1
    return admitted


def run_competitive(profile: ExperimentProfile) -> List[FigureResult]:
    """Measure Online_CP / SP against the offline oracle per network size."""
    admitted_panel = FigureResult(
        figure_id="competitive-admitted",
        title=(
            f"Admissions out of {profile.online_requests}: online algorithms "
            "vs an offline greedy oracle with full lookahead"
        ),
        x_label="network size |V|",
        xs=list(profile.network_sizes),
        metadata={"profile": profile.name},
    )
    ratio_panel = FigureResult(
        figure_id="competitive-ratio",
        title="Empirical competitive ratio (admitted / oracle admitted)",
        x_label="network size |V|",
        xs=list(profile.network_sizes),
        metadata={"profile": profile.name},
    )
    cp_counts, sp_counts, oracle_counts = [], [], []
    for size in profile.network_sizes:
        seed = profile.seed_for("competitive", size)
        graph = build_random_network(size, seed).graph
        requests = make_requests(
            graph, profile.online_requests, None, seed + 1
        )
        cp_stats = StreamEngine(
            calibrated_online_cp(build_random_network(size, seed)),
            SequenceStream(requests),
            clock=time.perf_counter,
        ).run()
        sp_stats = StreamEngine(
            make_sp_online(build_random_network(size, seed)),
            SequenceStream(requests),
            clock=time.perf_counter,
        ).run()
        oracle = offline_oracle_admissions(
            build_random_network(size, seed), requests
        )
        cp_counts.append(float(cp_stats.admitted))
        sp_counts.append(float(sp_stats.admitted))
        oracle_counts.append(float(max(1, oracle)))
    admitted_panel.add_series("Online_CP", cp_counts)
    admitted_panel.add_series("SP", sp_counts)
    admitted_panel.add_series("offline oracle", oracle_counts)
    ratio_panel.add_series(
        "Online_CP / oracle",
        [c / o for c, o in zip(cp_counts, oracle_counts)],
    )
    ratio_panel.add_series(
        "SP / oracle",
        [s / o for s, o in zip(sp_counts, oracle_counts)],
    )
    return [admitted_panel, ratio_panel]
