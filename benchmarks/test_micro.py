"""Micro-benchmarks of the algorithmic building blocks.

These are the per-request latencies behind the figures: a single
``Appro_Multi`` solve at each K, one baseline solve, one online decision,
and the raw KMB Steiner-tree kernel.
"""

import pytest

from repro.core import (
    OnlineCP,
    SPOnline,
    alg_one_server,
    appro_multi,
)
from repro.graph import kmb_steiner_tree
from repro.network import build_sdn
from repro.topology import gt_itm_flat
from repro.workload import generate_workload


def make_instance(size, seed=42):
    graph = gt_itm_flat(size, seed=seed)
    network = build_sdn(graph, seed=seed)
    request = generate_workload(graph, 1, dmax_ratio=0.1, seed=seed + 1)[0]
    return network, request


@pytest.mark.parametrize("k", [1, 2, 3])
def test_appro_multi_single_request_n100(benchmark, k):
    network, request = make_instance(100)
    tree = benchmark(appro_multi, network, request, k)
    assert tree.total_cost > 0
    benchmark.extra_info["K"] = k


@pytest.mark.parametrize("size", [50, 150])
def test_appro_multi_scaling(benchmark, size):
    network, request = make_instance(size)
    tree = benchmark(appro_multi, network, request, 3)
    assert tree.total_cost > 0
    benchmark.extra_info["network_size"] = size


def test_alg_one_server_single_request(benchmark):
    network, request = make_instance(100)
    tree = benchmark(alg_one_server, network, request)
    assert tree.total_cost > 0


def test_online_cp_decision(benchmark):
    network, request = make_instance(100)

    def decide():
        algorithm = OnlineCP(network)
        decision = algorithm.process(request)
        if decision.admitted:
            algorithm.depart(request.request_id)
        return decision

    decision = benchmark(decide)
    assert decision.admitted


def test_sp_decision(benchmark):
    network, request = make_instance(100)

    def decide():
        algorithm = SPOnline(network)
        decision = algorithm.process(request)
        if decision.admitted:
            algorithm.depart(request.request_id)
        return decision

    decision = benchmark(decide)
    assert decision.admitted


def test_kmb_kernel_n150(benchmark):
    graph = gt_itm_flat(150, seed=4)
    terminals = sorted(graph.nodes())[::10][:12]
    tree = benchmark(kmb_steiner_tree, graph, terminals)
    assert tree.num_nodes >= len(terminals)


def test_online_cpk_decision(benchmark):
    from repro.core import OnlineCPK, ExponentialCostModel

    network, request = make_instance(100)

    def decide():
        algorithm = OnlineCPK(
            network, max_servers=2,
            cost_model=ExponentialCostModel(alpha=8.0, beta=8.0),
        )
        decision = algorithm.process(request)
        if decision.admitted:
            algorithm.depart(request.request_id)
        return decision

    decision = benchmark(decide)
    assert decision.admitted
