"""Unit tests for Prim and Kruskal, cross-checked against each other and networkx."""

import networkx as nx
import pytest

from repro.exceptions import DisconnectedGraphError
from repro.graph import (
    Graph,
    is_tree,
    kruskal_mst,
    prim_mst,
)
from repro.topology import waxman_graph


class TestPrim:
    def test_triangle(self, triangle):
        mst = prim_mst(triangle)
        assert mst.num_edges == 2
        assert mst.total_weight() == pytest.approx(3.0)  # 1 + 2
        assert not mst.has_edge("a", "c")

    def test_respects_root(self, triangle):
        mst = prim_mst(triangle, root="c")
        assert mst.total_weight() == pytest.approx(3.0)

    def test_single_node(self):
        g = Graph()
        g.add_node("only")
        mst = prim_mst(g)
        assert mst.num_nodes == 1
        assert mst.num_edges == 0

    def test_empty_graph(self):
        assert prim_mst(Graph()).num_nodes == 0

    def test_disconnected_raises(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        with pytest.raises(DisconnectedGraphError):
            prim_mst(g)

    def test_result_is_tree(self, small_random_graph):
        assert is_tree(prim_mst(small_random_graph))


class TestKruskal:
    def test_triangle(self, triangle):
        mst = kruskal_mst(triangle)
        assert mst.total_weight() == pytest.approx(3.0)

    def test_disconnected_gives_forest(self):
        g = Graph.from_edges([("a", "b", 1.0), ("x", "y", 2.0)])
        forest = kruskal_mst(g)
        assert forest.num_edges == 2
        assert forest.num_nodes == 4

    def test_preserves_isolated_nodes(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        forest = kruskal_mst(g)
        assert forest.has_node("island")


class TestAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_prim_equals_kruskal_equals_networkx(self, seed):
        graph, _ = waxman_graph(30, alpha=0.4, beta=0.4, seed=seed)
        prim_weight = prim_mst(graph).total_weight()
        kruskal_weight = kruskal_mst(graph).total_weight()
        reference = nx.Graph()
        for u, v, w in graph.edges():
            reference.add_edge(u, v, weight=w)
        nx_weight = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_tree(reference).edges(data=True)
        )
        assert prim_weight == pytest.approx(kruskal_weight)
        assert prim_weight == pytest.approx(nx_weight)
