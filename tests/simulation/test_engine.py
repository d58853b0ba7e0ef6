"""Unit tests for the offline simulation drivers."""

import pytest

from repro.core import appro_multi, appro_multi_cap
from repro.exceptions import InfeasibleRequestError
from repro.network import Controller, build_sdn
from repro.simulation import run_offline, run_sequential_capacitated
from repro.topology import gt_itm_flat
from repro.workload import generate_workload


@pytest.fixture
def setup():
    graph = gt_itm_flat(40, seed=13)
    network = build_sdn(graph, seed=13)
    requests = generate_workload(graph, 20, dmax_ratio=0.1, seed=14)
    return graph, network, requests


class TestRunOffline:
    def test_counts_and_aggregates(self, setup):
        _, network, requests = setup
        stats = run_offline(
            lambda net, req: appro_multi(net, req, max_servers=2),
            network,
            requests,
        )
        assert stats.solved == len(requests)
        assert stats.infeasible == 0
        assert len(stats.costs) == len(requests)
        assert stats.mean_cost > 0
        assert all(runtime >= 0 for runtime in stats.runtimes)

    def test_does_not_mutate_network(self, setup):
        _, network, requests = setup
        run_offline(
            lambda net, req: appro_multi(net, req, max_servers=1),
            network,
            requests,
        )
        for link in network.links():
            assert link.residual == link.capacity

    def test_infeasible_counted(self, setup):
        _, network, requests = setup

        def failing_solver(net, req):
            raise InfeasibleRequestError("nope")

        stats = run_offline(failing_solver, network, requests)
        assert stats.infeasible == len(requests)
        assert stats.solved == 0


class TestRunSequentialCapacitated:
    def test_commits_resources(self, setup):
        _, network, requests = setup
        stats = run_sequential_capacitated(
            lambda net, req: appro_multi_cap(net, req, max_servers=2),
            network,
            requests,
        )
        assert stats.solved > 0
        assert network.total_bandwidth_allocated() > 0
        assert network.total_compute_allocated() > 0

    def test_controller_installation(self, setup):
        _, network, requests = setup
        controller = Controller()
        stats = run_sequential_capacitated(
            lambda net, req: appro_multi_cap(net, req, max_servers=2),
            network,
            requests,
            controller=controller,
        )
        assert len(controller.installed_requests) == stats.solved
        assert controller.total_rules() > 0
