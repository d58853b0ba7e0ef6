"""Determinism: identical seeds produce identical results, end to end.

Every figure in EXPERIMENTS.md claims to be reproducible; these tests hold
the whole stack to that claim (topology → workload → solver → driver), in
fresh objects within one process.  Cross-process stability is guaranteed by
construction: no component uses `hash()`-derived seeds or dict-order-
dependent iteration over non-deterministic sets.
"""

import pytest

from repro.analysis import ExperimentProfile, figure_to_dict, run_fig5
from repro.core import OnlineCP, appro_multi
from repro.network import build_sdn
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload

TINY = ExperimentProfile(
    name="tiny",
    network_sizes=(25,),
    ratios=(0.1,),
    offline_requests=3,
    online_requests=30,
    request_counts=(15, 30),
    max_servers=2,
    base_seed=1,
)


class TestSolverDeterminism:
    def test_appro_multi_stable_across_fresh_objects(self):
        def solve():
            graph = gt_itm_flat(35, seed=5)
            network = build_sdn(graph, seed=5)
            request = generate_workload(graph, 1, dmax_ratio=0.15, seed=6)[0]
            tree = appro_multi(network, request, max_servers=2)
            return (tree.total_cost, tree.servers,
                    tuple(sorted(map(repr, tree.touched_links()))))

        assert solve() == solve()

    def test_online_run_stable(self):
        def run():
            graph = gt_itm_flat(35, seed=7)
            network = build_sdn(graph, seed=7)
            requests = generate_workload(graph, 40, seed=8)
            stats = StreamEngine(
                OnlineCP(network), SequenceStream(requests)
            ).run()
            return (stats.admitted, stats.digest)

        assert run() == run()


class TestDriverDeterminism:
    def test_fig5_identical_across_runs(self):
        first = [figure_to_dict(p) for p in run_fig5(TINY)]
        second = [figure_to_dict(p) for p in run_fig5(TINY)]
        # drop timing panels: wall-clock differs run to run by nature
        first_costs = [p for p in first if "cost" in p["figure_id"]]
        second_costs = [p for p in second if "cost" in p["figure_id"]]
        assert first_costs == second_costs

    def test_different_base_seeds_differ(self):
        other = ExperimentProfile(
            name="tiny2",
            network_sizes=(25,),
            ratios=(0.1,),
            offline_requests=3,
            online_requests=30,
            request_counts=(15, 30),
            max_servers=2,
            base_seed=2,
        )
        a = run_fig5(TINY)[0].series_by_label("Appro_Multi").values
        b = run_fig5(other)[0].series_by_label("Appro_Multi").values
        assert a != b
