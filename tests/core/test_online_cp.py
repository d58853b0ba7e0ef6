"""Unit tests for Online_CP (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdmissionPolicy,
    ExponentialCostModel,
    LinearCostModel,
    OnlineCP,
    OnlineCPReference,
    validate_pseudo_tree,
)
from repro.core.cost_model import LinkPrices
from repro.core.online_base import RejectReason
from repro.core.online_cp import _Bounds, _detour
from repro.exceptions import SimulationError
from repro.graph import Graph, dijkstra
from repro.graph.shortest_paths import INFINITY
from repro.graph.spcache import ShortestPathCache
from repro.graph.steiner import flat_edges, kmb_steiner_tree_flat
from repro.network import build_sdn
from repro.nfv import FunctionType, ServiceChain
from repro.topology import waxman_graph
from repro.workload import MulticastRequest, generate_workload


def simple_chain():
    return ServiceChain.of(FunctionType.NAT)


class TestDefaults:
    def test_paper_calibration(self, small_network):
        algorithm = OnlineCP(small_network)
        n = small_network.num_nodes
        assert algorithm.cost_model.alpha(small_network) == 2 * n
        assert algorithm.policy.sigma_v == n - 1
        assert algorithm.policy.sigma_e == n - 1

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(sigma_v=0.0, sigma_e=1.0)


class TestAdmission:
    def test_admits_and_validates(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        decision = algorithm.process(request_batch[0])
        assert decision.admitted
        validate_pseudo_tree(small_network, decision.tree)
        assert decision.tree.num_servers == 1  # K = 1 online
        assert decision.selection_weight is not None

    def test_resources_match_edge_usage(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        request = request_batch[0]
        decision = algorithm.process(request)
        used = sum(
            link.capacity - link.residual for link in small_network.links()
        )
        expected = sum(
            count * request.bandwidth
            for count in decision.tree.edge_usage().values()
        )
        assert used == pytest.approx(expected)
        server = decision.tree.servers[0]
        state = small_network.server(server)
        assert state.capacity - state.residual == pytest.approx(
            request.compute_demand
        )

    def test_departure_restores_everything(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        request = request_batch[0]
        algorithm.process(request)
        algorithm.depart(request.request_id)
        for link in small_network.links():
            assert link.residual == pytest.approx(link.capacity)
        for server in small_network.servers():
            assert server.residual == pytest.approx(server.capacity)

    def test_depart_unknown_raises(self, small_network):
        algorithm = OnlineCP(small_network)
        with pytest.raises(SimulationError):
            algorithm.depart(404)

    def test_decisions_recorded_in_order(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        for request in request_batch[:4]:
            algorithm.process(request)
        assert len(algorithm.decisions) == 4
        assert (
            algorithm.admitted_count + algorithm.rejected_count == 4
        )


class TestRejection:
    def test_no_feasible_server(self, small_network, request_batch):
        for node in small_network.server_nodes:
            small_network.allocate_compute(
                node, small_network.server(node).residual
            )
        decision = OnlineCP(small_network).process(request_batch[0])
        assert not decision.admitted
        assert decision.reason is RejectReason.NO_FEASIBLE_SERVER

    def test_server_threshold(self, small_network, request_batch):
        # nearly fill every server: exponential weight exceeds σ_v
        for node in small_network.server_nodes:
            state = small_network.server(node)
            small_network.allocate_compute(node, 0.999 * state.capacity)
        request = request_batch[0]
        if any(
            small_network.server(n).can_allocate(request.compute_demand)
            for n in small_network.server_nodes
        ):
            decision = OnlineCP(small_network).process(request)
            assert not decision.admitted
            assert decision.reason in (
                RejectReason.SERVER_THRESHOLD,
                RejectReason.NO_FEASIBLE_SERVER,
            )

    def test_tree_threshold(self, small_network, request_batch):
        # load every link to 90%: each edge weight is huge under the 2|V| base
        for u, v, _ in small_network.graph.edges():
            link = small_network.link(u, v)
            small_network.allocate_bandwidth(u, v, 0.9 * link.capacity)
        decision = OnlineCP(small_network).process(request_batch[0])
        assert not decision.admitted
        assert decision.reason in (
            RejectReason.TREE_THRESHOLD,
            RejectReason.DISCONNECTED,
        )

    def test_disconnected(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(graph, server_nodes=["v"], seed=0)
        network.allocate_bandwidth(
            "v", "d", network.link("v", "d").residual - 1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert not decision.admitted
        assert decision.reason is RejectReason.DISCONNECTED


class TestPseudoTreeSemantics:
    def test_lca_detour_priced_and_reserved(self):
        """Server in a side branch: the processed stream pays the way back.

        Topology::

            s - u - d
                |
                v   (server)
        """
        graph = Graph.from_edges(
            [("s", "u", 1.0), ("u", "d", 1.0), ("u", "v", 1.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 10.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert decision.admitted
        tree = decision.tree
        assert tree.return_paths  # the v → u detour exists
        usage = tree.edge_usage()
        from repro.graph import edge_key

        assert usage[edge_key("u", "v")] == 2  # down to v, back up to u
        assert usage[edge_key("s", "u")] == 1
        assert usage[edge_key("u", "d")] == 1
        validate_pseudo_tree(network, tree)

    def test_server_on_destination_path_needs_no_detour(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(
            graph, server_nodes=["v"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 10.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert decision.admitted
        assert decision.tree.return_paths == ()


class TestLoadBalancing:
    def test_congestion_pricing_shifts_servers(self):
        """Once one server's compute fills up, the other takes over even
        though it is farther away."""
        graph = Graph.from_edges(
            [("s", "v1", 1.0), ("s", "m", 1.0), ("m", "v2", 1.0),
             ("v1", "d", 1.0), ("v2", "d", 3.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v1", "v2"], seed=0, link_cost_scale=1.0
        )
        algorithm = OnlineCP(
            network, cost_model=ExponentialCostModel(alpha=8.0, beta=8.0)
        )
        chain = simple_chain()
        servers_chosen = []
        for k in range(1, 120):
            request = MulticastRequest.create(k, "s", ["d"], 5.0, chain)
            decision = algorithm.process(request)
            if not decision.admitted:
                break
            servers_chosen.append(decision.tree.servers[0])
        assert "v1" in servers_chosen
        assert "v2" in servers_chosen  # pricing eventually diverts load

    def test_never_overcommits(self, medium_network):
        requests = generate_workload(
            medium_network.graph, 200, seed=77
        )
        algorithm = OnlineCP(
            medium_network,
            cost_model=ExponentialCostModel(alpha=8.0, beta=8.0),
        )
        for request in requests:
            algorithm.process(request)
        for link in medium_network.links():
            assert link.residual >= -1e-6
        for server in medium_network.servers():
            assert server.residual >= -1e-6

    def test_linear_model_variant_runs(self, small_network, request_batch):
        algorithm = OnlineCP(small_network, cost_model=LinearCostModel())
        decision = algorithm.process(request_batch[0])
        assert decision.admitted


class TestDetour:
    """The flat LCA walk keeps RootedTree's checks and its answers."""

    def test_meeting_point_is_highest_join_on_the_server_path(self):
        from repro.core.online_cp import _detour

        # 0 is the root; the server 3 hangs below 1, destinations below 1
        # and 2, so the paths join at the root.
        tree = {0: {1: 1.0, 2: 1.0}, 1: {0: 1.0, 3: 1.0, 4: 1.0},
                2: {0: 1.0}, 3: {1: 1.0}, 4: {1: 1.0}}
        nodes = list(range(5))
        assert _detour(tree, 0, 3, [4], nodes) == [3, 1]
        assert _detour(tree, 0, 3, [4, 2], nodes) == [3, 1, 0]
        assert _detour(tree, 0, 3, [3], nodes) == [3]
        assert _detour(tree, 0, 0, [4], nodes) == [0]

    def test_rejects_what_rooted_tree_rejects(self):
        from repro.core.online_cp import _detour
        from repro.exceptions import NodeNotFoundError, NotATreeError

        cycle = {0: {1: 1.0, 2: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {0: 1.0, 1: 1.0}}
        with pytest.raises(NotATreeError):
            _detour(cycle, 0, 1, [2], list(range(3)))
        # n - 1 edges, but a cycle plus an isolated node
        split = {**cycle, 3: {}}
        with pytest.raises(NotATreeError):
            _detour(split, 0, 1, [2], list(range(4)))
        with pytest.raises(NodeNotFoundError):
            _detour({1: {}}, 0, 1, [], list(range(2)))


def unpruned_candidates(network, request):
    """Every candidate of ``OnlineCP``'s decide, none skipped.

    One ``(server, F_v, B_v, tree weight, selection weight)`` per server
    that can host the chain, passes ``σ_v`` and is reachable; the weights
    come from a KMB tree built for every one of them.
    """
    algorithm = OnlineCP(network)
    model, policy = algorithm.cost_model, algorithm.policy
    prices = LinkPrices(model, network)
    csr = prices.priced_csr(request.bandwidth)
    cache = ShortestPathCache(compiled=csr)
    nodes, index = csr.nodes, csr.index
    source = index[request.source]
    dest_ids = [index[d] for d in sorted(request.destinations, key=repr)]
    source_dist = cache.flat_tree(request.source)[0]
    if any(source_dist[d] == INFINITY for d in dest_ids):
        return []
    bounds = _Bounds(
        source_dist,
        dest_ids,
        [cache.flat_tree(nodes[d])[0] for d in dest_ids],
        prices.bound_slack,
    )

    def weight(path_edges):
        return sum(prices.price[prices.link_at[u][v]] for u, v in path_edges)

    out = []
    for server in network.server_nodes:
        if not network.server(server).can_allocate(request.compute_demand):
            continue
        server_weight = model.node_weight(network, server)
        if not policy.server_admissible(server_weight):
            continue
        server_id = index[server]
        if source_dist[server_id] == INFINITY:
            continue
        tree = kmb_steiner_tree_flat(
            csr,
            [source, server_id] + dest_ids,
            lambda terminal: cache.flat_tree(nodes[terminal]),
        )
        tree_weight = weight((u, v) for u, v, _ in flat_edges(tree))
        detour = _detour(tree, source, server_id, dest_ids, nodes)
        selection = tree_weight + server_weight + weight(zip(detour, detour[1:]))
        floor, bound = bounds.of(server_id, server_weight)
        out.append((server, floor, bound, tree_weight, selection))
    return out


@st.composite
def congested_instances(draw):
    """A small network loaded by ``OnlineCP`` admissions, plus a request.

    Capacities are a fraction of the defaults, so the load prices links
    and servers steeply; half the instances set every unit cost equal.
    """
    seed = draw(st.integers(0, 10_000))
    graph, _ = waxman_graph(
        draw(st.integers(8, 16)), alpha=0.5, beta=0.5, seed=seed
    )
    if draw(st.booleans()):
        graph = Graph.from_edges((u, v, 1.0) for u, v, _ in graph.edges())
    network = build_sdn(
        graph,
        seed=seed,
        server_fraction=0.3,
        bandwidth_range=(300.0, 1_500.0),
        compute_range=(100.0, 600.0),
    )
    load = draw(st.integers(0, 40))
    requests = generate_workload(
        graph, count=load + 1, dmax_ratio=0.25, seed=seed + 10_000
    )
    algorithm = OnlineCP(network)
    for request in requests[:-1]:
        algorithm.process(request)
    return network, requests[-1]


class TestBoundedSweep:
    """The sweep skips a server only when it cannot change the decision."""

    @settings(max_examples=40, deadline=None)
    @given(congested_instances())
    def test_bounds_sit_below_the_weights_they_bound(self, instance):
        """``F_v`` ≤ the tree's weight and ``B_v`` ≤ the selection weight."""
        network, request = instance
        for _, floor, bound, tree_weight, selection in unpruned_candidates(
            network, request
        ):
            assert floor <= tree_weight
            assert bound <= selection

    def test_idle_tie_reaches_a_server_whose_bound_equals_the_winner(self):
        """An idle tie at 0 goes to ``p``, listed first, swept second.

        Topology (link unit costs)::

            d -0- s -0- q
                  |
                  1
                  |
                  p

        Only ``s - p`` carries a tie-break ``t``, so ``q``'s bound is
        ``-2t`` and ``p``'s is exactly ``2t - 2t = 0``: ``p`` is swept
        after ``q`` has set the winning weight 0, and must still be built.
        """
        graph = Graph.from_edges(
            [("s", "d", 0.0), ("s", "q", 0.0), ("s", "p", 1.0)]
        )

        def twin():
            return build_sdn(
                graph, server_nodes=["p", "q"], seed=0, link_cost_scale=1.0
            )

        request = MulticastRequest.create(1, "s", ["d"], 10.0, simple_chain())
        table = {
            server: (bound, selection)
            for server, _, bound, _, selection in unpruned_candidates(
                twin(), request
            )
        }
        assert table["q"][0] < table["p"][0] == 0.0
        assert table["q"][1] == table["p"][1] == 0.0
        decision = OnlineCP(twin()).process(request)
        reference = OnlineCPReference(twin()).process(request)
        assert decision.tree.servers == reference.tree.servers == ("p",)
        assert decision.selection_weight == 0.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nodes", [16, 24])
    def test_idle_ties_go_to_the_first_server(self, seed, nodes):
        """On an idle network every selection weight is 0, so the first
        reachable server in ``server_nodes`` order wins, as in the
        reference, whatever order the bounds sweep the servers in."""
        graph, _ = waxman_graph(nodes, alpha=0.5, beta=0.5, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=0.3)
        twin = build_sdn(graph, seed=seed, server_fraction=0.3)
        algorithm, reference = OnlineCP(network), OnlineCPReference(twin)
        for request in generate_workload(
            graph, count=10, dmax_ratio=0.25, seed=seed + 10_000
        ):
            reaches = dijkstra(graph, request.source).reaches
            first = next(v for v in network.server_nodes if reaches(v))
            decision = algorithm.process(request)
            expected = reference.process(request)
            assert decision.selection_weight == 0.0
            assert decision.tree.servers == expected.tree.servers == (first,)
            # departing leaves both twins idle for the next request
            algorithm.depart(request.request_id)
            reference.depart(request.request_id)
