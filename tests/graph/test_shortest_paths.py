"""Unit tests for Dijkstra and derived queries, cross-checked vs networkx."""

import networkx as nx
import pytest

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph import (
    Graph,
    all_pairs_shortest_paths,
    diameter,
    dijkstra,
    eccentricity,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from repro.topology import waxman_graph


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    return g


class TestDijkstra:
    def test_trivial_source(self, triangle):
        tree = dijkstra(triangle, "a")
        assert tree.distance["a"] == 0.0
        assert tree.parent["a"] is None

    def test_picks_cheaper_two_hop(self, triangle):
        # a-c direct costs 4, a-b-c costs 3
        tree = dijkstra(triangle, "a")
        assert tree.distance["c"] == pytest.approx(3.0)
        assert tree.path_to("c") == ["a", "b", "c"]

    def test_missing_source_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            dijkstra(triangle, "zzz")

    def test_unreachable_target(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        tree = dijkstra(g, "a")
        assert not tree.reaches("island")
        with pytest.raises(DisconnectedGraphError):
            tree.path_to("island")

    def test_early_exit_settles_targets(self, line_graph):
        tree = dijkstra(line_graph, "n0", targets={"n2"})
        assert tree.reaches("n2")
        # n5 is beyond the early-exit frontier
        assert not tree.reaches("n5")

    def test_path_endpoints(self, small_random_graph):
        nodes = sorted(small_random_graph.nodes())
        path = shortest_path(small_random_graph, nodes[0], nodes[-1])
        assert path[0] == nodes[0]
        assert path[-1] == nodes[-1]
        for u, v in zip(path, path[1:]):
            assert small_random_graph.has_edge(u, v)

    def test_tree_edges_are_parent_child(self, line_graph):
        tree = dijkstra(line_graph, "n0")
        edges = [
            (parent, child)
            for child, parent in tree.parent.items()
            if parent is not None
        ]
        assert ("n0", "n1") in edges
        assert len(edges) == 5


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_source_distances(self, seed):
        graph, _ = waxman_graph(30, alpha=0.35, beta=0.4, seed=seed)
        reference = to_networkx(graph)
        source = sorted(graph.nodes())[0]
        ours = single_source_distances(graph, source)
        theirs = nx.single_source_dijkstra_path_length(
            reference, source, weight="weight"
        )
        assert set(ours) == set(theirs)
        for node, distance in ours.items():
            assert distance == pytest.approx(theirs[node])

    @pytest.mark.parametrize("seed", [5, 6])
    def test_path_lengths_match(self, seed):
        graph, _ = waxman_graph(25, alpha=0.4, beta=0.4, seed=seed)
        reference = to_networkx(graph)
        nodes = sorted(graph.nodes())
        for target in nodes[1:8]:
            ours = shortest_path_length(graph, nodes[0], target)
            theirs = nx.dijkstra_path_length(
                reference, nodes[0], target, weight="weight"
            )
            assert ours == pytest.approx(theirs)


class TestAllPairs:
    def test_restricted_sources(self, triangle):
        trees = all_pairs_shortest_paths(triangle, sources=["a", "b"])
        assert set(trees) == {"a", "b"}
        assert trees["b"].distance["c"] == pytest.approx(2.0)

    def test_default_all_nodes(self, triangle):
        trees = all_pairs_shortest_paths(triangle)
        assert set(trees) == {"a", "b", "c"}


class TestEccentricityDiameter:
    def test_line_graph(self, line_graph):
        assert eccentricity(line_graph, "n0") == pytest.approx(5.0)
        assert eccentricity(line_graph, "n2") == pytest.approx(3.0)
        assert diameter(line_graph) == pytest.approx(5.0)

    def test_disconnected_raises(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        with pytest.raises(DisconnectedGraphError):
            eccentricity(g, "a")

    def test_diameter_small_cases(self):
        assert diameter(Graph()) == 0.0
        single = Graph()
        single.add_node("only")
        assert diameter(single) == 0.0
