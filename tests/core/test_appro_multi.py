"""Unit tests for Appro_Multi and Appro_Multi_Cap (Algorithm 1)."""

import importlib
import math

import pytest

from repro.analysis.common import build_real_network, make_requests
from repro.core import (
    CSRCombinationEvaluator,
    appro_multi,
    appro_multi_cap,
    appro_multi_detailed,
    build_context,
    iter_combinations,
    optimal_auxiliary_cost,
    validate_pseudo_tree,
)
from repro.core.appro_multi import _search, _search_reference
from repro.exceptions import InfeasibleRequestError
from repro.graph import Graph
from repro.network import build_sdn
from repro.nfv import FunctionType, ServiceChain
from repro.topology import waxman_graph
from repro.workload import MulticastRequest, generate_workload


def simple_chain():
    return ServiceChain.of(FunctionType.NAT)


class TestBasics:
    def test_solution_is_valid(self, small_network, request_batch):
        for request in request_batch:
            tree = appro_multi(small_network, request, max_servers=2)
            validate_pseudo_tree(small_network, tree)
            assert tree.num_servers <= 2
            assert tree.total_cost > 0

    def test_invalid_k_rejected(self, small_network, sample_request):
        with pytest.raises(ValueError):
            appro_multi(small_network, sample_request, max_servers=0)

    def test_detailed_statistics(self, small_network, sample_request):
        detailed = appro_multi_detailed(small_network, sample_request, 2)
        assert detailed.combinations_evaluated >= 1
        assert detailed.combinations_pruned >= 0
        assert detailed.tree.total_cost > 0

    def test_deterministic(self, small_network, sample_request):
        t1 = appro_multi(small_network, sample_request, max_servers=2)
        t2 = appro_multi(small_network, sample_request, max_servers=2)
        assert t1.total_cost == pytest.approx(t2.total_cost)
        assert t1.servers == t2.servers

    def test_cost_decomposition(self, small_network, sample_request):
        tree = appro_multi(small_network, sample_request, max_servers=2)
        expected_compute = sum(
            small_network.chain_cost(v, sample_request.compute_demand)
            for v in tree.servers
        )
        assert tree.compute_cost == pytest.approx(expected_compute)
        assert tree.total_cost == pytest.approx(
            tree.bandwidth_cost + tree.compute_cost
        )


class TestMonotonicityInK:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cost_never_increases_with_k(self, seed):
        graph, _ = waxman_graph(25, alpha=0.35, beta=0.4, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=0.2)
        requests = generate_workload(graph, 4, dmax_ratio=0.2, seed=seed + 9)
        for request in requests:
            costs = [
                appro_multi(network, request, max_servers=k).total_cost
                for k in (1, 2, 3)
            ]
            assert costs[1] <= costs[0] + 1e-9
            assert costs[2] <= costs[1] + 1e-9


class TestApproximationBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_within_twice_exact_auxiliary_optimum(self, seed):
        """KMB per combination is a 2-approximation, so the returned tree
        costs at most 2 · min_i OPT(G_k^i) — a *stronger* check than the
        paper's 2K bound against the true optimum."""
        graph, _ = waxman_graph(18, alpha=0.45, beta=0.45, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=0.25)
        request = generate_workload(
            graph, 1, dmax_ratio=0.25, seed=seed + 40
        )[0]
        tree = appro_multi(network, request, max_servers=2)
        exact, _ = optimal_auxiliary_cost(network, request, max_servers=2)
        assert tree.total_cost <= 2.0 * exact + 1e-6
        assert tree.total_cost >= exact - 1e-6  # can't beat the optimum


class TestMultiServerBenefit:
    def test_elongated_topology_uses_two_servers(self):
        """On a line with far-apart destination clusters, K = 2 must win and
        place both servers (the paper's motivating scenario)."""
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
        single = appro_multi(network, request, max_servers=1)
        double = appro_multi(network, request, max_servers=2)
        assert double.total_cost < single.total_cost
        assert set(double.servers) == {"vA", "vB"}
        validate_pseudo_tree(network, double)


class TestSourceEdgeCases:
    def test_source_is_server(self):
        graph = Graph.from_edges([("s", "d1", 1.0), ("s", "d2", 1.0)])
        network = build_sdn(
            graph, server_nodes=["s"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(
            1, "s", ["d1", "d2"], 10.0, simple_chain()
        )
        tree = appro_multi(network, request, max_servers=1)
        assert tree.servers == ("s",)
        validate_pseudo_tree(network, tree)

    def test_server_adjacent_to_source_zero_rule(self):
        """When the chosen server neighbors the source, the (s,v) hop used by
        the returning stream is not charged twice (the zero-cost rule)."""
        graph = Graph.from_edges(
            [("s", "v", 1.0), ("v", "d1", 1.0), ("s", "d2", 1.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v"], seed=0, link_cost_scale=1.0,
            server_unit_cost_range=(0.0001, 0.0001),
        )
        request = MulticastRequest.create(
            1, "s", ["d1", "d2"], 1.0, simple_chain()
        )
        tree = appro_multi(network, request, max_servers=1)
        chain_cost = network.chain_cost("v", request.compute_demand)
        # route s→v (1) + v→d1 (1) + back over the free s-v hop + s→d2 (1)
        assert tree.total_cost == pytest.approx(3.0 + chain_cost)
        validate_pseudo_tree(network, tree)


class TestCapacitatedVariant:
    def test_matches_uncapacitated_on_idle_network(
        self, small_network, request_batch
    ):
        for request in request_batch[:5]:
            uncap = appro_multi(small_network, request, max_servers=2)
            cap = appro_multi_cap(small_network, request, max_servers=2)
            assert cap.total_cost == pytest.approx(uncap.total_cost)

    def test_avoids_exhausted_links(self):
        # two disjoint routes; the cheap one is exhausted
        graph = Graph.from_edges(
            [
                ("s", "v", 1.0),
                ("v", "d", 1.0),
                ("s", "x", 5.0),
                ("x", "v2", 5.0),
                ("v2", "d", 5.0),
            ]
        )
        network = build_sdn(
            graph, server_nodes=["v", "v2"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        cheap = appro_multi_cap(network, request, max_servers=1)
        assert cheap.servers == ("v",)
        # exhaust the cheap path
        network.allocate_bandwidth(
            "s", "v", network.link("s", "v").residual - 50.0
        )
        rerouted = appro_multi_cap(network, request, max_servers=1)
        assert rerouted.servers == ("v2",)
        validate_pseudo_tree(network, rerouted)

    def test_avoids_exhausted_servers(self):
        graph = Graph.from_edges(
            [("s", "v", 1.0), ("v", "d", 1.0), ("s", "v2", 3.0), ("v2", "d", 3.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v", "v2"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        state = network.server("v")
        network.allocate_compute("v", state.residual - 1.0)
        tree = appro_multi_cap(network, request, max_servers=1)
        assert tree.servers == ("v2",)

    def test_rejects_when_no_server_fits(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(graph, server_nodes=["v"], seed=0)
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        network.allocate_compute("v", network.server("v").residual)
        with pytest.raises(InfeasibleRequestError):
            appro_multi_cap(network, request, max_servers=1)

    def test_rejects_when_destinations_cut_off(self):
        graph = Graph.from_edges(
            [("s", "v", 1.0), ("v", "m", 1.0), ("m", "d", 1.0)]
        )
        network = build_sdn(graph, server_nodes=["v"], seed=0)
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        link = network.link("m", "d")
        network.allocate_bandwidth("m", "d", link.residual - 10.0)
        with pytest.raises(InfeasibleRequestError):
            appro_multi_cap(network, request, max_servers=1)

    def test_cost_never_below_uncapacitated(self):
        """Pruning can only shrink the search space (Fig. 7's shape)."""
        graph, _ = waxman_graph(25, alpha=0.35, beta=0.4, seed=5)
        network = build_sdn(graph, seed=5, server_fraction=0.2)
        requests = generate_workload(graph, 6, dmax_ratio=0.2, seed=50)
        # pre-load the network substantially
        for u, v, _ in network.graph.edges():
            network.allocate_bandwidth(
                u, v, 0.97 * network.link(u, v).capacity
            )
        for request in requests:
            uncap = appro_multi(network, request, max_servers=2).total_cost
            try:
                cap = appro_multi_cap(network, request, max_servers=2).total_cost
            except InfeasibleRequestError:
                continue
            assert cap >= uncap - 1e-6


#: ``(seed, request id)`` of ``appro-geant-batch`` requests (the benchmark's
#: GÉANT batch: K = 3, ``D_max/|V|`` = 0.2, requests drawn with seed + 1)
#: whose cheapest cost is reached, to the last bit, by two distinct trees:
#: combinations 66 and 72, both serving from Amsterdam.
GEANT_TIES = [(20170605, 1104), (7, 1713), (9, 648)]


def geant_batch_context(seed, request_id):
    """``(context, request)`` as ``appro_multi`` builds it for one request."""
    network = build_real_network("GEANT", 0)
    request = make_requests(network.graph, request_id, 0.2, seed + 1)[-1]
    assert request.request_id == request_id
    ctx = build_context(
        graph=network.graph,
        source=request.source,
        destinations=sorted(request.destinations, key=repr),
        servers=network.server_nodes,
        chain_cost={
            v: network.chain_cost(v, request.compute_demand)
            for v in network.server_nodes
        },
        bandwidth=request.bandwidth,
        cache=network.path_cache(),
    )
    return ctx, request


def search_bits(search, ctx, request):
    tree = search(ctx, request, 3).tree
    return tree.servers, tree.distribution_edges, tree.total_cost.hex()


class TestCostTies:
    """``_search`` breaks exact cost ties as the seed loop does."""

    @pytest.mark.parametrize("seed, request_id", GEANT_TIES)
    def test_tied_geant_requests_match_seed_search(self, seed, request_id):
        ctx, request = geant_batch_context(seed, request_id)
        assert search_bits(_search, ctx, request) == search_bits(
            _search_reference, ctx, request
        )

    def test_bound_an_ulp_above_a_tie_does_not_skip_it(self, monkeypatch):
        """A lower bound sums distances in another order than the cost it
        bounds, so it may sit an ulp above that cost.  Forced there on
        combination 66 while tied combination 72 is evaluated first, the
        prune must still evaluate 66, the tie the seed loop returns."""
        ctx, request = geant_batch_context(20170605, 1104)
        combinations = list(iter_combinations(ctx.candidate_servers, 3))
        cost = CSRCombinationEvaluator(ctx).evaluate(combinations[66]).cost
        forced = {
            combinations[66]: math.nextafter(cost, math.inf),
            combinations[72]: 0.0,
        }

        class SkewedBounds(CSRCombinationEvaluator):
            def lower_bound(self, combination):
                if combination in forced:
                    return forced[combination]
                return super().lower_bound(combination)

        # ``repro.core.appro_multi`` names the function, not the module
        module = importlib.import_module("repro.core.appro_multi")
        monkeypatch.setattr(module, "CSRCombinationEvaluator", SkewedBounds)
        assert search_bits(_search, ctx, request) == search_bits(
            _search_reference, ctx, request
        )
