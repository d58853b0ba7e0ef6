"""Unit tests for the multi-server online extension (OnlineCPK)."""

import pytest

from repro.core import (
    ExponentialCostModel,
    OnlineCP,
    OnlineCPK,
    SPOnline,
    validate_pseudo_tree,
)
from repro.core.online_base import RejectReason
from repro.graph import Graph
from repro.network import build_sdn
from repro.nfv import FunctionType, ServiceChain
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import MulticastRequest, generate_workload


def simple_chain():
    return ServiceChain.of(FunctionType.NAT)


def soft_model():
    return ExponentialCostModel(alpha=8.0, beta=8.0)


class TestBasics:
    def test_invalid_k(self, small_network):
        with pytest.raises(ValueError):
            OnlineCPK(small_network, max_servers=0)

    def test_admits_valid_trees(self, small_network, request_batch):
        algorithm = OnlineCPK(small_network, max_servers=2)
        decision = algorithm.process(request_batch[0])
        assert decision.admitted
        validate_pseudo_tree(small_network, decision.tree)
        assert 1 <= decision.tree.num_servers <= 2

    def test_resources_reserved_for_every_server(self):
        """When a request splits across two servers, both hold compute."""
        graph = Graph.from_edges(
            [
                ("dA", "vA", 2.0),
                ("vA", "a", 2.0),
                ("a", "s", 2.0),
                ("s", "b", 2.0),
                ("b", "vB", 2.0),
                ("vB", "dB", 2.0),
            ]
        )
        network = build_sdn(
            graph,
            server_nodes=["vA", "vB"],
            seed=0,
            link_cost_scale=0.01,
            server_unit_cost_range=(0.001, 0.001),
        )
        request = MulticastRequest.create(
            1, "s", ["dA", "dB"], 100.0, simple_chain()
        )
        algorithm = OnlineCPK(network, max_servers=2, cost_model=soft_model())
        decision = algorithm.process(request)
        assert decision.admitted
        assert set(decision.tree.servers) == {"vA", "vB"}
        for server in ("vA", "vB"):
            state = network.server(server)
            assert state.capacity - state.residual == pytest.approx(
                request.compute_demand
            )

    def test_departure_restores(self, small_network, request_batch):
        algorithm = OnlineCPK(small_network, max_servers=2)
        request = request_batch[0]
        algorithm.process(request)
        algorithm.depart(request.request_id)
        for link in small_network.links():
            assert link.residual == pytest.approx(link.capacity)
        for server in small_network.servers():
            assert server.residual == pytest.approx(server.capacity)


class TestRejection:
    def test_no_feasible_server(self, small_network, request_batch):
        for node in small_network.server_nodes:
            small_network.allocate_compute(
                node, small_network.server(node).residual
            )
        decision = OnlineCPK(small_network).process(request_batch[0])
        assert not decision.admitted
        assert decision.reason is RejectReason.NO_FEASIBLE_SERVER

    def test_disconnected(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(graph, server_nodes=["v"], seed=0)
        network.allocate_bandwidth(
            "v", "d", network.link("v", "d").residual - 1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        decision = OnlineCPK(network).process(request)
        assert not decision.admitted
        assert decision.reason is RejectReason.DISCONNECTED


class TestAgainstOtherAlgorithms:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_beats_sp_under_load(self, seed):
        graph = gt_itm_flat(50, seed=seed)
        requests = generate_workload(graph, 250, seed=seed + 1)
        cpk = StreamEngine(
            OnlineCPK(build_sdn(graph, seed=seed), 2, cost_model=soft_model()),
            SequenceStream(requests),
        ).run()
        sp = StreamEngine(
            SPOnline(build_sdn(graph, seed=seed)), SequenceStream(requests)
        ).run()
        assert cpk.admitted >= sp.admitted

    def test_comparable_to_online_cp(self):
        graph = gt_itm_flat(50, seed=9)
        requests = generate_workload(graph, 200, seed=10)
        cpk = StreamEngine(
            OnlineCPK(build_sdn(graph, seed=9), 1, cost_model=soft_model()),
            SequenceStream(requests),
        ).run()
        cp = StreamEngine(
            OnlineCP(build_sdn(graph, seed=9), cost_model=soft_model()),
            SequenceStream(requests),
        ).run()
        # same pricing, slightly different candidate structures: stay close
        assert abs(cpk.admitted - cp.admitted) <= 0.15 * len(requests)

    def test_never_overcommits(self):
        graph = gt_itm_flat(40, seed=12)
        network = build_sdn(graph, seed=12)
        requests = generate_workload(graph, 250, seed=13)
        StreamEngine(
            OnlineCPK(network, 2, cost_model=soft_model()),
            SequenceStream(requests),
        ).run()
        for link in network.links():
            assert link.residual >= -1e-6
        for server in network.servers():
            assert server.residual >= -1e-6
