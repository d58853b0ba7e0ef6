"""End-to-end integration tests across the whole stack."""

import pytest

from repro import (
    Controller,
    OnlineCP,
    SPOnline,
    alg_one_server,
    appro_multi,
    appro_multi_cap,
    build_sdn,
    generate_workload,
    geant_graph,
    geant_servers,
    gt_itm_flat,
    operational_cost,
    validate_pseudo_tree,
)
from repro.core import ExponentialCostModel
from repro.stream import SequenceStream, StreamEngine
from repro.exceptions import InfeasibleRequestError


class TestOfflinePipeline:
    """Generate → solve → validate → account, on a realistic network."""

    @pytest.fixture(scope="class")
    def network(self):
        return build_sdn(gt_itm_flat(80, seed=31), seed=31)

    @pytest.fixture(scope="class")
    def requests(self, network):
        return generate_workload(network.graph, 15, seed=32)

    def test_every_request_solvable_and_consistent(self, network, requests):
        for request in requests:
            tree = appro_multi(network, request, max_servers=3)
            validate_pseudo_tree(network, tree)
            recomputed = operational_cost(network, tree)
            # solver-reported cost and first-principles accounting agree
            # (the zero-cost source-adjacent rule can only make the
            # solver's number smaller)
            assert tree.total_cost <= recomputed + 1e-6

    def test_statistical_superiority_over_baseline(self, network, requests):
        appro = [
            appro_multi(network, r, max_servers=3).total_cost
            for r in requests
        ]
        base = [alg_one_server(network, r).total_cost for r in requests]
        wins = sum(1 for a, b in zip(appro, base) if a <= b + 1e-9)
        assert wins >= 0.8 * len(requests)
        assert sum(appro) < sum(base)


class TestSequentialAdmissionLifecycle:
    def test_admit_until_saturation_then_release(self):
        network = build_sdn(gt_itm_flat(30, seed=41), seed=41)
        controller = Controller()
        requests = generate_workload(network.graph, 120, dmax_ratio=0.2,
                                     seed=42)
        from repro.core import try_allocate

        active = []
        rejected = 0
        for request in requests:
            try:
                tree = appro_multi_cap(network, request, max_servers=2)
            except InfeasibleRequestError:
                rejected += 1
                continue
            txn = try_allocate(network, tree)
            if txn is None:
                rejected += 1
                continue
            controller.install_tree(
                request.request_id, tree.routing_hops(), list(tree.servers)
            )
            active.append((request.request_id, txn))

        assert active, "nothing was admitted"
        assert network.total_bandwidth_allocated() > 0

        # tear everything down; the network must come back pristine
        for request_id, txn in active:
            controller.uninstall(request_id)
            txn.release_all()
        assert controller.total_rules() == 0
        for link in network.links():
            assert link.residual == pytest.approx(link.capacity)
        for server in network.servers():
            assert server.residual == pytest.approx(server.capacity)


class TestOnlineComparisonOnGeant:
    def test_cp_beats_sp_under_load(self):
        graph = geant_graph()
        servers = geant_servers()
        requests = generate_workload(graph, 300, seed=51)
        cp_net = build_sdn(graph, server_nodes=servers, seed=51)
        sp_net = build_sdn(graph, server_nodes=servers, seed=51)
        cp = OnlineCP(
            cp_net, cost_model=ExponentialCostModel(alpha=8.0, beta=8.0)
        )
        cp_stats = StreamEngine(cp, SequenceStream(requests)).run()
        sp_stats = StreamEngine(SPOnline(sp_net), SequenceStream(requests)).run()
        assert cp_stats.admitted >= sp_stats.admitted
        # both behave sanely
        assert cp_stats.admitted > 100
        assert 0.0 < cp_net.mean_link_utilization() < 1.0

    def test_admitted_trees_all_valid(self):
        graph = geant_graph()
        network = build_sdn(graph, server_nodes=geant_servers(), seed=52)
        requests = generate_workload(graph, 60, seed=53)
        algorithm = OnlineCP(network)
        for request in requests:
            decision = algorithm.process(request)
            if decision.admitted:
                validate_pseudo_tree(network, decision.tree)
                assert decision.tree.request is request


class TestCrossAlgorithmConsistency:
    """All solvers must agree on feasibility for the same instance."""

    def test_agreement_on_clearly_feasible_instances(self):
        network = build_sdn(gt_itm_flat(40, seed=61), seed=61)
        requests = generate_workload(network.graph, 10, dmax_ratio=0.1,
                                     seed=62)
        for request in requests:
            appro_tree = appro_multi(network, request, max_servers=1)
            base_tree = alg_one_server(network, request)
            cp_decision = OnlineCP(network).process(request)
            assert cp_decision.admitted
            OnlineCP(network)  # fresh instance; prior one holds resources
            # release so the next loop iteration starts idle
            cp_decision.transaction.release_all()
            # the baseline's routing is itself a feasible pseudo-multicast
            # tree, so its cost upper-bounds the auxiliary optimum and the
            # 2-approximation cannot exceed twice it
            assert appro_tree.total_cost <= 2.0 * base_tree.total_cost + 1e-9
