"""Confidence-interval variants of the noisiest figures.

The paper plots single-run points.  Online admission counts are noisy in
the workload draw, so this driver repeats Fig. 8 under several workload
seeds and reports mean ± 95 % CI per algorithm — the columns ``Online_CP``
and ``Online_CP ±`` etc.  A non-overlapping CI between the two algorithms
is the statistically honest version of "Online_CP outperforms SP".
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.analysis.common import (
    build_random_network,
    calibrated_online_cp,
    make_requests,
    make_sp_online,
)
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.series import FigureResult
from repro.analysis.stats import curves_with_confidence
from repro.stream.engine import StreamEngine
from repro.stream.workloads import SequenceStream

#: Workload seeds per data point (3 keeps the driver affordable).
DEFAULT_SEED_COUNT = 3


def run_fig8_ci(
    profile: ExperimentProfile,
    seed_count: int = DEFAULT_SEED_COUNT,
) -> List[FigureResult]:
    """Fig. 8 with mean ± 95 % CI over ``seed_count`` workload draws."""

    def measure(seed_index: int, size) -> Dict[str, float]:
        size = int(size)
        base = profile.seed_for("fig8ci", size, seed_index)
        graph = build_random_network(size, base).graph
        requests = make_requests(
            graph, profile.online_requests, None, base + 1
        )
        cp_stats = StreamEngine(
            calibrated_online_cp(build_random_network(size, base)),
            SequenceStream(requests),
            clock=time.perf_counter,
        ).run()
        sp_stats = StreamEngine(
            make_sp_online(build_random_network(size, base)),
            SequenceStream(requests),
            clock=time.perf_counter,
        ).run()
        return {
            "Online_CP": float(cp_stats.admitted),
            "SP": float(sp_stats.admitted),
        }

    panel = curves_with_confidence(
        measure,
        seeds=list(range(seed_count)),
        xs=list(profile.network_sizes),
        figure_id="fig8ci",
        title=(
            f"Fig. 8 with spread: admissions out of "
            f"{profile.online_requests}, mean ± 95% CI over "
            f"{seed_count} workload draws"
        ),
        x_label="network size |V|",
    )
    panel.metadata["profile"] = profile.name
    return [panel]
