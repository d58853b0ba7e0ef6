"""Unit tests for connectivity queries."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import (
    Graph,
    bfs_reachable,
    connected_components,
    is_connected,
)


@pytest.fixture
def two_islands():
    g = Graph.from_edges(
        [("a", "b", 1.0), ("b", "c", 1.0), ("x", "y", 1.0)]
    )
    g.add_node("lonely")
    return g


class TestReachability:
    def test_bfs_reachable(self, two_islands):
        assert bfs_reachable(two_islands, "a") == {"a", "b", "c"}
        assert bfs_reachable(two_islands, "lonely") == {"lonely"}

    def test_missing_node_raises(self, two_islands):
        with pytest.raises(NodeNotFoundError):
            bfs_reachable(two_islands, "zzz")


class TestComponents:
    def test_connected_components(self, two_islands):
        components = connected_components(two_islands)
        assert sorted(len(c) for c in components) == [1, 2, 3]

    def test_is_connected(self, two_islands, triangle):
        assert not is_connected(two_islands)
        assert is_connected(triangle)
        assert is_connected(Graph())  # vacuous
