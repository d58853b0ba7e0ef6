"""Unit tests for the KMB Steiner-tree approximation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph import (
    Graph,
    ShortestPathCache,
    compile_csr,
    dijkstra,
    dreyfus_wagner,
    kmb_steiner_tree,
    kmb_steiner_tree_cached,
    metric_closure,
    steiner_tree_cost,
    validate_steiner_tree,
)
from repro.graph.steiner import flat_edges, kmb_steiner_tree_flat
from repro.topology import grid_graph, waxman_graph


class TestMetricClosure:
    def test_triangle(self, triangle):
        closure = metric_closure(triangle, ["a", "c"])
        # a-c goes via b: cost 3, not the direct edge of 4
        assert closure.closure.weight("a", "c") == pytest.approx(3.0)
        assert closure.expand_edge("a", "c") == ["a", "b", "c"]

    def test_missing_terminal_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            metric_closure(triangle, ["a", "zzz"])

    def test_disconnected_raises(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        with pytest.raises(DisconnectedGraphError):
            metric_closure(g, ["a", "island"])

    def test_duplicate_terminals_deduped(self, triangle):
        closure = metric_closure(triangle, ["a", "a", "b"])
        assert closure.closure.num_nodes == 2


class TestKMB:
    def test_single_terminal(self, triangle):
        tree = kmb_steiner_tree(triangle, ["b"])
        assert tree.num_nodes == 1
        assert tree.num_edges == 0

    def test_two_terminals_is_shortest_path(self, triangle):
        tree = kmb_steiner_tree(triangle, ["a", "c"])
        assert steiner_tree_cost(tree) == pytest.approx(3.0)
        assert tree.has_node("b")  # Steiner node on the path

    def test_empty_terminals_raises(self, triangle):
        with pytest.raises(ValueError):
            kmb_steiner_tree(triangle, [])

    def test_grid_spanning(self):
        grid = grid_graph(4, 4)
        terminals = [(0, 0), (0, 3), (3, 0), (3, 3)]
        tree = kmb_steiner_tree(grid, terminals)
        validate_steiner_tree(grid, tree, terminals)
        # Optimal is 8-9 on a 4x4 grid for the corners; KMB must be <= 2x
        assert steiner_tree_cost(tree) <= 18.0

    def test_star_instance(self):
        # hub-and-spoke: optimal Steiner tree is the star through the hub
        g = Graph()
        for i in range(5):
            g.add_edge("hub", f"leaf{i}", 1.0)
        for i in range(5):
            g.add_edge(f"leaf{i}", f"leaf{(i + 1) % 5}", 3.0)
        terminals = [f"leaf{i}" for i in range(5)]
        tree = kmb_steiner_tree(g, terminals)
        validate_steiner_tree(g, tree, terminals)
        assert steiner_tree_cost(tree) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_instances_valid_and_bounded(self, seed):
        graph, _ = waxman_graph(25, alpha=0.4, beta=0.4, seed=seed)
        nodes = sorted(graph.nodes())
        terminals = nodes[:: max(1, len(nodes) // 5)][:5]
        tree = kmb_steiner_tree(graph, terminals)
        validate_steiner_tree(graph, tree, terminals)
        optimal, _ = dreyfus_wagner(graph, terminals)
        ratio = steiner_tree_cost(tree) / optimal
        assert 1.0 - 1e-9 <= ratio <= 2.0

    def test_terminals_equal_whole_graph(self, triangle):
        tree = kmb_steiner_tree(triangle, ["a", "b", "c"])
        validate_steiner_tree(triangle, tree, ["a", "b", "c"])
        # becomes the MST
        assert steiner_tree_cost(tree) == pytest.approx(3.0)


class TestKMBCached:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_uncached(self, seed):
        graph, _ = waxman_graph(25, alpha=0.4, beta=0.4, seed=seed)
        nodes = sorted(graph.nodes())
        terminals = nodes[:6]
        trees = {t: dijkstra(graph, t) for t in terminals}
        cached = kmb_steiner_tree_cached(graph, trees, terminals)
        plain = kmb_steiner_tree(graph, terminals)
        validate_steiner_tree(graph, cached, terminals)
        assert steiner_tree_cost(cached) == pytest.approx(
            steiner_tree_cost(plain)
        )

    def test_single_terminal(self, triangle):
        tree = kmb_steiner_tree_cached(triangle, {}, ["a"])
        assert tree.num_nodes == 1

    def test_empty_raises(self, triangle):
        with pytest.raises(ValueError):
            kmb_steiner_tree_cached(triangle, {}, [])

    def test_disconnected_raises(self):
        g = Graph.from_edges([("a", "b", 1.0)])
        g.add_node("island")
        trees = {"a": dijkstra(g, "a"), "island": dijkstra(g, "island")}
        with pytest.raises(DisconnectedGraphError):
            kmb_steiner_tree_cached(g, trees, ["a", "island"])

    def test_missing_tree_raises_keyerror(self, triangle):
        """A terminal without a cached Dijkstra tree is a caller bug."""
        trees = {"a": dijkstra(triangle, "a")}
        with pytest.raises(KeyError):
            kmb_steiner_tree_cached(triangle, trees, ["a", "b"])

    def test_duplicate_terminals_collapse_before_lookup(self, triangle):
        # ["a", "a"] dedupes to one terminal, so the short-circuit path
        # never consults the (empty) tree map.
        tree = kmb_steiner_tree_cached(triangle, {}, ["a", "a"])
        assert tree.num_nodes == 1
        assert tree.has_node("a")


@st.composite
def graphs_with_terminals(draw):
    """A random graph (tie-heavy half the time, maybe disconnected) and
    a terminal list that may repeat nodes."""
    n = draw(st.integers(2, 14))
    if draw(st.booleans()):
        weights = st.sampled_from([1.0, 1.0, 2.0])
    else:
        weights = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for _ in range(draw(st.integers(n - 2, 3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            graph.add_edge(u, v, draw(weights))
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return graph, terminals


class TestKMBFlat:
    """Index-space KMB: the cached KMB's tree, dict iteration order included."""

    @settings(max_examples=120, deadline=None)
    @given(graphs_with_terminals(), st.booleans())
    def test_matches_cached_kmb_bit_for_bit(self, case, partial_second):
        graph, terminals = case
        trees = ShortestPathCache(graph)
        csr = compile_csr(graph)
        rows_cache = ShortestPathCache(compiled=csr)
        unique = list(dict.fromkeys(terminals))
        later = set(unique[2:])

        def rows(terminal):
            node = csr.nodes[terminal]
            # The second terminal is read only at the terminals after it,
            # so a search that stops once they settle must be enough.
            if partial_second and len(unique) > 1 and node == unique[1]:
                return rows_cache.flat_tree(node, targets=later)
            return rows_cache.flat_tree(node)

        ids = [csr.index[t] for t in terminals]
        try:
            expected = kmb_steiner_tree_cached(graph, trees, terminals)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                kmb_steiner_tree_flat(csr, ids, rows)
            return
        flat = kmb_steiner_tree_flat(csr, ids, rows)
        nodes = csr.nodes
        assert tuple(
            (nodes[u], tuple((nodes[v], w) for v, w in row.items()))
            for u, row in flat.items()
        ) == tuple(
            (u, tuple(expected.neighbor_items(u))) for u in expected.nodes()
        )
        assert [
            (nodes[u], nodes[v], w) for u, v, w in flat_edges(flat)
        ] == list(expected.edges())

    def test_empty_raises(self, triangle):
        csr = compile_csr(triangle)
        with pytest.raises(ValueError):
            kmb_steiner_tree_flat(csr, [], lambda t: None)

    def test_single_terminal_reads_no_row(self, triangle):
        csr = compile_csr(triangle)
        assert kmb_steiner_tree_flat(csr, [1, 1], lambda t: None) == {1: {}}


class TestValidation:
    def test_detects_missing_terminal(self, triangle):
        bogus = Graph.from_edges([("a", "b", 1.0)])
        with pytest.raises(AssertionError):
            validate_steiner_tree(triangle, bogus, ["a", "c"])

    def test_detects_cycle(self, triangle):
        with pytest.raises(AssertionError):
            validate_steiner_tree(triangle, triangle.copy(), ["a", "b", "c"])

    def test_detects_foreign_edge(self, triangle):
        bogus = Graph.from_edges([("a", "zz", 1.0), ("zz", "c", 1.0)])
        with pytest.raises(AssertionError):
            validate_steiner_tree(triangle, bogus, ["a", "c"])

    def test_detects_nonterminal_leaf(self, line_graph):
        # tree n0..n3 with terminals n0, n2 leaves n3 dangling
        sub = line_graph.edge_subgraph(
            [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
        )
        with pytest.raises(AssertionError):
            validate_steiner_tree(line_graph, sub, ["n0", "n2"])
