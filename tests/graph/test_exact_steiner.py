"""Unit tests for the Dreyfus–Wagner exact Steiner solver."""

import itertools

import pytest

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph import (
    Graph,
    dreyfus_wagner,
    is_tree,
    validate_steiner_tree,
)
from repro.topology import grid_graph, waxman_graph


def brute_force_steiner_cost(graph: Graph, terminals) -> float:
    """Exhaustive minimum over all edge subsets that are valid Steiner trees.

    Exponential — only for graphs with <= 12 edges.
    """
    edges = list(graph.edges())
    assert len(edges) <= 12
    best = float("inf")
    terminal_set = set(terminals)
    for r in range(len(terminal_set) - 1, len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            sub = Graph()
            for u, v, w in subset:
                sub.add_edge(u, v, w)
            if not all(sub.has_node(t) for t in terminal_set):
                continue
            if not is_tree(sub):
                continue
            from repro.graph import bfs_reachable

            reach = bfs_reachable(sub, next(iter(terminal_set)))
            if not terminal_set <= reach:
                continue
            best = min(best, sub.total_weight())
    return best


class TestSmallInstances:
    def test_single_terminal(self, triangle):
        cost, tree = dreyfus_wagner(triangle, ["b"])
        assert cost == 0.0
        assert tree.num_nodes == 1

    def test_two_terminals_is_shortest_path(self, triangle):
        cost, tree = dreyfus_wagner(triangle, ["a", "c"])
        assert cost == pytest.approx(3.0)
        validate_steiner_tree(triangle, tree, ["a", "c"])

    def test_all_three_terminals(self, triangle):
        cost, tree = dreyfus_wagner(triangle, ["a", "b", "c"])
        assert cost == pytest.approx(3.0)  # the MST a-b, b-c

    def test_steiner_node_used(self):
        # star where the optimal tree MUST use the non-terminal hub
        g = Graph()
        for leaf in ["x", "y", "z"]:
            g.add_edge("hub", leaf, 1.0)
        g.add_edge("x", "y", 10.0)
        g.add_edge("y", "z", 10.0)
        cost, tree = dreyfus_wagner(g, ["x", "y", "z"])
        assert cost == pytest.approx(3.0)
        assert tree.has_node("hub")

    def test_empty_terminals_raises(self, triangle):
        with pytest.raises(ValueError):
            dreyfus_wagner(triangle, [])

    def test_too_many_terminals_raises(self):
        grid = grid_graph(5, 5)
        terminals = list(grid.nodes())[:17]
        with pytest.raises(ValueError):
            dreyfus_wagner(grid, terminals)

    def test_missing_terminal_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            dreyfus_wagner(triangle, ["a", "zzz"])

    def test_disconnected_raises(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        with pytest.raises(DisconnectedGraphError):
            dreyfus_wagner(g, ["a", "island"])


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_random_graphs(self, seed):
        graph, _ = waxman_graph(7, alpha=0.6, beta=0.6, seed=seed)
        if graph.num_edges > 12:
            pytest.skip("random draw too dense for the brute-force oracle")
        terminals = sorted(graph.nodes())[:4]
        expected = brute_force_steiner_cost(graph, terminals)
        cost, tree = dreyfus_wagner(graph, terminals)
        assert cost == pytest.approx(expected)
        validate_steiner_tree(graph, tree, terminals)


class TestTreeReconstruction:
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_tree_cost_matches_reported(self, seed):
        graph, _ = waxman_graph(20, alpha=0.5, beta=0.5, seed=seed)
        terminals = sorted(graph.nodes())[:5]
        cost, tree = dreyfus_wagner(graph, terminals)
        assert tree.total_weight() == pytest.approx(cost)
        validate_steiner_tree(graph, tree, terminals)
