"""Unit tests for the SDNetwork model and builder."""

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    NetworkModelError,
    NodeNotFoundError,
)
from repro.graph import Graph
from repro.network import (
    DEFAULT_BANDWIDTH_RANGE,
    DEFAULT_COMPUTE_RANGE,
    SDNetwork,
    build_sdn,
)


class TestBuildSdn:
    def test_paper_defaults(self, small_random_graph):
        network = build_sdn(small_random_graph, seed=1)
        assert network.num_nodes == 20
        assert len(network.server_nodes) == 2  # 10% of 20
        for link in network.links():
            lo, hi = DEFAULT_BANDWIDTH_RANGE
            assert lo <= link.capacity <= hi
            assert link.residual == link.capacity
        for server in network.servers():
            lo, hi = DEFAULT_COMPUTE_RANGE
            assert lo <= server.capacity <= hi

    def test_explicit_servers(self, small_random_graph):
        nodes = sorted(small_random_graph.nodes())[:3]
        network = build_sdn(small_random_graph, server_nodes=nodes, seed=1)
        assert sorted(network.server_nodes) == sorted(nodes)

    def test_unknown_server_raises(self, small_random_graph):
        with pytest.raises(NodeNotFoundError):
            build_sdn(small_random_graph, server_nodes=["ghost"], seed=1)

    def test_empty_servers_raises(self, small_random_graph):
        with pytest.raises(NetworkModelError):
            build_sdn(small_random_graph, server_nodes=[], seed=1)

    def test_empty_graph_raises(self):
        with pytest.raises(NetworkModelError):
            build_sdn(Graph(), seed=1)

    def test_deterministic(self, small_random_graph):
        n1 = build_sdn(small_random_graph, seed=5)
        n2 = build_sdn(small_random_graph, seed=5)
        assert n1.server_nodes == n2.server_nodes
        for (u, v, _) in small_random_graph.edges():
            assert n1.link(u, v).capacity == n2.link(u, v).capacity

    def test_weights_are_unit_costs(self, small_random_graph):
        network = build_sdn(small_random_graph, seed=1)
        for u, v, w in network.graph.edges():
            assert network.link_unit_cost(u, v) == pytest.approx(w)


class TestAccessors:
    def test_link_and_server_lookup(self, small_network):
        u, v, _ = next(iter(small_network.graph.edges()))
        assert small_network.link(u, v).capacity > 0
        assert small_network.link(v, u) is small_network.link(u, v)
        server = small_network.server_nodes[0]
        assert small_network.server(server).capacity > 0
        assert small_network.is_server(server)

    def test_missing_lookups_raise(self, small_network):
        with pytest.raises(EdgeNotFoundError):
            small_network.link("ghost", "ghost2")
        with pytest.raises(NodeNotFoundError):
            small_network.server("ghost")

    def test_chain_cost(self, small_network):
        server = small_network.server_nodes[0]
        unit = small_network.server_unit_cost(server)
        assert small_network.chain_cost(server, 100.0) == pytest.approx(
            100.0 * unit
        )


class TestResidualViews:
    def test_residual_graph_prunes_thin_links(self, small_network):
        u, v, _ = next(iter(small_network.graph.edges()))
        link = small_network.link(u, v)
        small_network.allocate_bandwidth(u, v, link.capacity - 10.0)
        pruned = small_network.residual_graph(min_bandwidth=50.0)
        assert not pruned.has_edge(u, v)
        assert pruned.num_nodes == small_network.num_nodes  # nodes kept

    def test_residual_graph_keeps_adequate_links(self, small_network):
        full = small_network.residual_graph(min_bandwidth=100.0)
        assert full.num_edges == small_network.graph.num_edges

    def test_feasible_servers(self, small_network):
        demand = 100.0
        assert set(small_network.feasible_servers(demand)) == set(
            small_network.server_nodes
        )
        victim = small_network.server_nodes[0]
        capacity = small_network.server(victim).capacity
        small_network.allocate_compute(victim, capacity - 50.0)
        assert victim not in small_network.feasible_servers(demand)


class TestSnapshots:
    def test_snapshot_restore(self, small_network):
        u, v, _ = next(iter(small_network.graph.edges()))
        server = small_network.server_nodes[0]
        snapshot = small_network.snapshot()
        small_network.allocate_bandwidth(u, v, 500.0)
        small_network.allocate_compute(server, 1000.0)
        small_network.restore(snapshot)
        assert small_network.link(u, v).residual == small_network.link(
            u, v
        ).capacity
        assert small_network.server(server).residual == small_network.server(
            server
        ).capacity

    def test_reset(self, small_network):
        u, v, _ = next(iter(small_network.graph.edges()))
        small_network.allocate_bandwidth(u, v, 500.0)
        small_network.reset()
        assert small_network.link(u, v).residual == small_network.link(
            u, v
        ).capacity

    def test_foreign_snapshot_rejected(self, small_network, triangle):
        other = build_sdn(triangle, server_nodes=["a"], seed=1)
        with pytest.raises(NetworkModelError):
            small_network.restore(other.snapshot())


class TestStatistics:
    def test_utilization_statistics(self, small_network):
        assert small_network.mean_link_utilization() == 0.0
        assert small_network.mean_server_utilization() == 0.0
        u, v, _ = next(iter(small_network.graph.edges()))
        small_network.allocate_bandwidth(u, v, small_network.link(u, v).capacity)
        assert small_network.mean_link_utilization() > 0.0
        assert small_network.total_bandwidth_allocated() == pytest.approx(
            small_network.link(u, v).capacity
        )

    def test_compute_allocation_tracking(self, small_network):
        server = small_network.server_nodes[0]
        small_network.allocate_compute(server, 123.0)
        assert small_network.total_compute_allocated() == pytest.approx(123.0)


class TestConstructionValidation:
    def test_edges_without_link_state_rejected(self, triangle):
        with pytest.raises(NetworkModelError):
            SDNetwork(graph=triangle, links={}, servers={})

    def test_server_on_missing_node_rejected(self, triangle):
        reference = build_sdn(triangle, server_nodes=["a"], seed=1)
        links = {key: state for key, state in
                 ((link.endpoints, link) for link in reference.links())}
        servers = {"ghost": next(iter(reference.servers()))}
        with pytest.raises(NetworkModelError):
            SDNetwork(graph=reference.graph, links=links, servers=servers)


class TestUnitPathCache:
    """The hop-count cache behind the SP baseline (PR 4, RL001 fix)."""

    def test_trees_match_fresh_dijkstra_on_explicit_unit_graph(self, small_network):
        from repro.graph.graph import Graph
        from repro.graph.shortest_paths import dijkstra

        bandwidth = 100.0
        residual = small_network.residual_graph(bandwidth)
        unit = Graph()
        for node in residual.nodes():
            unit.add_node(node)
        for u, v, _ in residual.edges():
            unit.add_edge(u, v, 1.0)
        source = sorted(small_network.graph.nodes(), key=repr)[0]
        expected = dijkstra(unit, source)
        cached = small_network.unit_path_cache(bandwidth).tree(source)
        assert cached.distance == expected.distance
        assert cached.parent == expected.parent

    def test_every_cached_weight_is_one(self, small_network):
        cache = small_network.unit_path_cache(0.0)
        assert all(w == 1.0 for _, _, w in cache.graph.edges())

    def test_same_epoch_reuses_the_cache_object(self, small_network):
        first = small_network.unit_path_cache(100.0)
        assert small_network.unit_path_cache(100.0) is first

    def test_mutation_invalidates(self, small_network):
        before = small_network.unit_path_cache(100.0)
        u, v, _ = next(iter(small_network.graph.edges()))
        small_network.allocate_bandwidth(u, v, 1.0)
        assert small_network.unit_path_cache(100.0) is not before

    def test_exhausted_links_disappear(self, small_network):
        u, v, _ = next(iter(small_network.graph.edges()))
        small_network.allocate_bandwidth(u, v, small_network.link(u, v).capacity)
        assert not small_network.unit_path_cache(1.0).graph.has_edge(u, v)
