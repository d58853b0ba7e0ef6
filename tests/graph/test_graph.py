"""Unit tests for the core Graph data structure."""

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    NodeNotFoundError,
)
from repro.graph import Graph, edge_key, path_weight


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("a", "b", 2.5)
        assert g.has_node("a") and g.has_node("b")
        assert g.weight("a", "b") == 2.5
        assert g.weight("b", "a") == 2.5

    def test_add_edge_overwrites_weight(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 3.0)
        assert g.weight("a", "b") == 3.0
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a", 1.0)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", -1.0)

    def test_from_edges(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_integer_nodes(self):
        g = Graph.from_edges([(1, 2, 1.0), (2, 3, 2.0)])
        assert g.has_edge(1, 2)
        assert sorted(g.nodes()) == [1, 2, 3]


#: Weights every entry point must refuse: NaN slips past ``weight < 0``.
BAD_WEIGHTS = [float("nan"), float("inf"), float("-inf"), -1.0]


class TestWeightValidation:
    """Negative and non-finite weights fail where they enter a graph."""

    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_add_edge_rejects(self, bad):
        g = Graph()
        with pytest.raises(InvalidWeightError, match="finite non-negative"):
            g.add_edge("a", "b", bad)
        assert g.num_nodes == 0  # nothing half-added

    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_set_weight_rejects(self, triangle, bad):
        before = triangle.weight("a", "b")
        with pytest.raises(InvalidWeightError) as caught:
            triangle.set_weight("a", "b", bad)
        assert (caught.value.u, caught.value.v) == ("a", "b")
        assert triangle.weight("a", "b") == before
        assert triangle.weight("b", "a") == before

    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_from_adjacency_rejects(self, bad):
        with pytest.raises(InvalidWeightError):
            Graph.from_adjacency({"a": {"b": bad}, "b": {"a": bad}})

    def test_error_is_typed_and_still_a_value_error(self):
        assert issubclass(InvalidWeightError, GraphError)
        assert issubclass(InvalidWeightError, ValueError)

    def test_finite_non_negative_weights_pass(self):
        g = Graph()
        g.add_edge("a", "b", 0.0)
        g.add_edge("b", "c", 1e300)
        g.set_weight("a", "b", 2.5)
        assert g.weight("b", "c") == 1e300


class TestRemoval:
    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert not triangle.has_edge("b", "a")
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge("a", "zzz")

    def test_remove_node_strips_incident_edges(self, triangle):
        triangle.remove_node("b")
        assert not triangle.has_node("b")
        assert triangle.num_edges == 1  # only a-c remains
        assert triangle.has_edge("a", "c")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_node("zzz")


class TestQueries:
    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors("a")) == ["b", "c"]

    def test_neighbors_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            list(triangle.neighbors("zzz"))

    def test_neighbor_items(self, triangle):
        items = dict(triangle.neighbor_items("a"))
        assert items == {"b": 1.0, "c": 4.0}

    def test_degree(self, triangle):
        assert triangle.degree("a") == 2

    def test_weight_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.weight("a", "zzz")

    def test_set_weight(self, triangle):
        triangle.set_weight("a", "b", 9.0)
        assert triangle.weight("b", "a") == 9.0

    def test_set_weight_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.set_weight("a", "zzz", 1.0)

    def test_set_weight_zero_allowed(self, triangle):
        triangle.set_weight("a", "b", 0.0)
        assert triangle.weight("a", "b") == 0.0

    def test_edges_reported_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        keys = {edge_key(u, v) for u, v, _ in edges}
        assert len(keys) == 3

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == pytest.approx(7.0)

    def test_contains_len_iter(self, triangle):
        assert "a" in triangle
        assert "zzz" not in triangle
        assert len(triangle) == 3
        assert sorted(triangle) == ["a", "b", "c"]

    def test_repr(self, triangle):
        assert "nodes=3" in repr(triangle)
        assert "edges=3" in repr(triangle)


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_subgraph(self, triangle):
        sub = triangle.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.weight("a", "b") == 1.0

    def test_subgraph_ignores_unknown_nodes(self, triangle):
        sub = triangle.subgraph(["a", "unknown"])
        assert sub.num_nodes == 1
        assert sub.num_edges == 0

    def test_edge_subgraph(self, triangle):
        sub = triangle.edge_subgraph([("a", "b"), ("b", "c")])
        assert sub.num_edges == 2
        assert sub.weight("b", "c") == 2.0

    def test_edge_subgraph_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge_subgraph([("a", "zzz")])


class TestHelpers:
    def test_edge_key_symmetric(self):
        assert edge_key("b", "a") == edge_key("a", "b")
        assert edge_key(2, 1) == edge_key(1, 2)

    def test_edge_key_mixed_types(self):
        # must not raise on unorderable node types
        key1 = edge_key("a", 1)
        key2 = edge_key(1, "a")
        assert key1 == key2

    def test_path_weight(self, triangle):
        assert path_weight(triangle, ["a", "b", "c"]) == pytest.approx(3.0)
        assert path_weight(triangle, ["a"]) == 0.0
        assert path_weight(triangle, []) == 0.0
