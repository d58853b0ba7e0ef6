"""The CSR kernel's contract: bit-identical to the dict engine, or bust.

Every test here compares :mod:`repro.graph.csr` against
:func:`repro.graph.shortest_paths.dijkstra` — not against "close enough"
but against **exact equality including dict insertion order**, because the
solvers' tie-breaking (which parent a node gets among equal-cost paths,
which combination an enumeration visits first) rides on that order.  The
hypothesis strategies deliberately draw tie-heavy weights so equal-priority
heap traffic — where the ``heapq`` loop must hand over to its
``IndexedHeap`` replica — is the common case, not the rare one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import GraphError, InvalidWeightError, NodeNotFoundError
from repro.graph import (
    CSRGraph,
    Graph,
    ShortestPathCache,
    compile_csr,
    dijkstra,
    dijkstra_csr,
    dijkstra_many,
    dijkstra_rows,
)


@st.composite
def weighted_graphs(draw, min_nodes=2, max_nodes=14, tie_heavy=False):
    """A connected weighted graph: random spanning tree + random extras.

    With ``tie_heavy`` the weights come from ``{1.0, 2.0}``, which makes
    equal-cost paths (and equal-priority heap entries) ubiquitous.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    if tie_heavy:
        weights = st.sampled_from([1.0, 1.0, 2.0])
    else:
        weights = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
    graph = Graph()
    graph.add_node(0)
    for node in range(1, n):
        anchor = draw(st.integers(0, node - 1))
        graph.add_edge(node, anchor, draw(weights))
    extra = draw(st.integers(0, 2 * n))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            graph.add_edge(u, v, draw(weights))
    return graph


def assert_trees_identical(expected, actual):
    """Equal values AND equal dict insertion order, per the contract."""
    assert expected.source == actual.source
    assert expected.distance == actual.distance
    assert list(expected.distance) == list(actual.distance)
    assert expected.parent == actual.parent
    assert list(expected.parent) == list(actual.parent)


# ---------------------------------------------------------------------------
# equivalence with the dict engine
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(weighted_graphs())
def test_full_search_matches_dict_engine(graph):
    csr = compile_csr(graph)
    for source in graph.nodes():
        assert_trees_identical(dijkstra(graph, source), dijkstra_csr(csr, source))


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(tie_heavy=True))
def test_tie_heavy_search_matches_dict_engine_exactly(graph):
    """Equal-priority pops resolve identically — the heap is a replica."""
    csr = compile_csr(graph)
    for source in graph.nodes():
        assert_trees_identical(dijkstra(graph, source), dijkstra_csr(csr, source))


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(tie_heavy=True), st.data())
def test_targeted_search_matches_dict_engine(graph, data):
    nodes = list(graph.nodes())
    source = data.draw(st.sampled_from(nodes))
    targets = set(data.draw(st.lists(st.sampled_from(nodes), max_size=5)))
    csr = compile_csr(graph)
    assert_trees_identical(
        dijkstra(graph, source, targets=targets),
        dijkstra_csr(csr, source, targets=targets),
    )


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(tie_heavy=True), st.data())
def test_rows_match_decoded_trees_full_and_targeted(graph, data):
    """One search loop: its rows and its decoded trees agree everywhere.

    For a full and a targeted run from the same source, the decoded tree
    equals the dict engine's (insertion order included), the rows equal
    the decoded tree at every settled node, and a targeted run's rows
    equal the full run's rows there.
    """
    nodes = list(graph.nodes())
    source = data.draw(st.sampled_from(nodes))
    targets = set(data.draw(st.lists(st.sampled_from(nodes), max_size=4)))
    csr = compile_csr(graph)
    index = csr.index
    full_dist, full_parent = dijkstra_rows(csr, source)
    for chosen in (None, targets):
        tree = dijkstra_csr(csr, source, targets=chosen)
        assert_trees_identical(dijkstra(graph, source, targets=chosen), tree)
        dist, parent = dijkstra_rows(csr, source, targets=chosen)
        for node, value in tree.distance.items():
            i = index[node]
            assert dist[i] == value == full_dist[i]
            assert parent[i] == full_parent[i]
            predecessor = tree.parent[node]
            assert parent[i] == (-1 if predecessor is None else index[predecessor])
    settled = dijkstra_csr(csr, source).distance
    for node in nodes:
        if node not in settled:
            assert full_dist[index[node]] == float("inf")
            assert full_parent[index[node]] == -1


def test_from_adjacency_equals_compiled_view():
    """A view built from rows searches exactly like the compiled one."""
    graph = _ladder()
    compiled = compile_csr(graph, epoch=3)
    rows = list(compiled.adjacency())
    rebuilt = CSRGraph(compiled.nodes, compiled.index, rows, epoch=3)
    assert rebuilt.adjacency() == compiled.adjacency()
    assert rebuilt.num_edges == compiled.num_edges and rebuilt.epoch == 3
    for source in graph.nodes():
        assert_trees_identical(
            dijkstra_csr(compiled, source), dijkstra_csr(rebuilt, source)
        )


def _ladder():
    """A small fixed graph with ties, handy for the edge-case tests."""
    graph = Graph()
    for u, v in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]:
        graph.add_edge(u, v, 1.0)
    return graph


def test_targets_edge_cases_match_dict_engine():
    graph = _ladder()
    csr = compile_csr(graph)
    cases = [
        set(),  # stops after the source settles
        {0},  # source is its own target
        {3, "ghost"},  # unknown target disables the early exit
        {"ghost"},  # only unknown targets: full component settle
    ]
    for targets in cases:
        assert_trees_identical(
            dijkstra(graph, 0, targets=targets),
            dijkstra_csr(csr, 0, targets=set(targets)),
        )


def test_consecutive_searches_share_one_workspace():
    """Back-to-back runs on one view must not contaminate each other."""
    graph = _ladder()
    csr = compile_csr(graph)
    first = [dijkstra_csr(csr, source) for source in graph.nodes()]
    second = [dijkstra_csr(csr, source) for source in graph.nodes()]
    for a, b in zip(first, second):
        assert_trees_identical(a, b)
    # and a targeted (early-exit) run in between leaves no residue either
    dijkstra_csr(csr, 0, targets={1})
    assert_trees_identical(first[2], dijkstra_csr(csr, 2))


# ---------------------------------------------------------------------------
# the heapq fast path and its tie fallback
# ---------------------------------------------------------------------------


def _counted(run):
    """``run()`` with telemetry on: its result, searches and fallbacks."""
    obs.enable()
    before = obs.counters()
    try:
        result = run()
    finally:
        obs.disable()
    delta = obs.counters_since(before)
    return (
        result,
        delta.get("csr.dijkstra.calls", 0),
        delta.get("csr.dijkstra.tie_fallbacks", 0),
    )


def _graph(nodes, edges):
    """A graph with nodes interned in the given order."""
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    for u, v, weight in edges:
        graph.add_edge(u, v, weight)
    return graph


@pytest.mark.parametrize(
    "edges, settled, joined",
    [
        # unit-weight 4-cycle: 3 and 1 tie at 1.0, 3 queued first
        (
            [(0, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0), (3, 2, 1.0)],
            [0, 3, 1, 2],
            (2, 3),
        ),
        # zero-weight edges: 2 and 1 tie with the source at 0.0
        (
            [(0, 2, 0.0), (0, 1, 0.0), (1, 3, 1.0), (2, 3, 1.0)],
            [0, 2, 1, 3],
            (3, 2),
        ),
    ],
    ids=["unit-4-cycle", "zero-weight"],
)
def test_pop_tie_falls_back_to_the_replica(edges, settled, joined):
    """Equal live pops hand the search to the replica, which keeps the
    dict engine's tie order: the tied node queued first settles first and
    parents the far node, although its index is the larger one."""
    graph = _graph([0, 1, 2, 3], edges)
    csr = compile_csr(graph)
    tree, calls, fallbacks = _counted(lambda: dijkstra_csr(csr, 0))
    assert (calls, fallbacks) == (1, 1)
    assert list(tree.distance) == settled
    node, parent = joined
    assert tree.parent[node] == parent
    assert_trees_identical(dijkstra(graph, 0), tree)


def test_targeted_stop_tie_falls_back_to_the_replica():
    """A tie only the stop check sees: target 1 pops at 1.0 while node 3,
    queued first at the same 1.0, is still live.  The replica settles 3
    first and reaches 2 from it; stopping at the pop would not."""
    graph = _graph(
        [0, 1, 3, 2],
        [(0, 3, 1.0), (0, 1, 1.0), (3, 2, 1.0), (1, 2, 5.0)],
    )
    csr = compile_csr(graph)
    tree, calls, fallbacks = _counted(lambda: dijkstra_csr(csr, 0, {1}))
    assert (calls, fallbacks) == (1, 1)
    assert list(tree.distance) == [0, 3, 1]
    assert tree.parent[2] == 3
    assert_trees_identical(dijkstra(graph, 0, targets={1}), tree)


@pytest.mark.parametrize(
    "name, searches", [("GEANT", 40), ("AS1755", 87), ("AS4755", 41)]
)
def test_real_topology_sweeps_take_the_fast_path(name, searches):
    """All-origins sweeps of the figures' real topologies tie nowhere, so
    no search falls back: a tie check that always fired would still give
    right answers, only slowly."""
    from repro.analysis.common import build_real_network

    graph = build_real_network(name, 20170605).graph
    csr = compile_csr(graph)
    nodes = list(graph.nodes())
    trees, calls, fallbacks = _counted(lambda: dijkstra_many(csr, nodes))
    assert (calls, fallbacks) == (searches, 0)
    for source in nodes[:5]:
        assert_trees_identical(dijkstra(graph, source), trees[source])


# ---------------------------------------------------------------------------
# dijkstra_many
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(weighted_graphs(tie_heavy=True))
def test_batch_equals_individual_runs(graph):
    csr = compile_csr(graph)
    sources = list(graph.nodes())
    batch = dijkstra_many(csr, sources)
    assert list(batch) == sources  # result dict is in sources order
    for source in sources:
        assert_trees_identical(dijkstra_csr(csr, source), batch[source])


def test_batch_collapses_duplicate_sources():
    graph = _ladder()
    csr = compile_csr(graph)
    batch = dijkstra_many(csr, [1, 0, 1, 0])
    assert list(batch) == [1, 0]
    assert_trees_identical(dijkstra_csr(csr, 1), batch[1])


def test_batch_with_terminal_set_matches_metric_closure_pattern():
    """``targets=full set`` equals per-source ``set - {source}`` early exit."""
    graph = _ladder()
    csr = compile_csr(graph)
    terminals = [0, 2, 3]
    batch = dijkstra_many(csr, terminals, targets=set(terminals))
    for terminal in terminals:
        assert_trees_identical(
            dijkstra(graph, terminal, targets=set(terminals) - {terminal}),
            batch[terminal],
        )


def test_batch_empty_targets_matches_dict_engine():
    """``targets=set()``: every source stops right after it settles itself."""
    graph = _ladder()
    csr = compile_csr(graph)
    sources = [0, 2]
    batch = dijkstra_many(csr, sources, targets=set())
    for source in sources:
        assert_trees_identical(
            dijkstra(graph, source, targets=set()), batch[source]
        )
        assert batch[source].distance == {source: 0.0}


def test_batch_terminal_equal_to_origin_matches_dict_engine():
    """An origin inside the target set is discharged the moment it pops."""
    graph = _ladder()
    csr = compile_csr(graph)
    terminals = {0, 3}
    batch = dijkstra_many(csr, [0, 3], targets=terminals)
    for source in (0, 3):
        assert_trees_identical(
            dijkstra(graph, source, targets=terminals), batch[source]
        )


def test_batch_unreachable_terminal_matches_dict_engine():
    """Unreachable or unknown terminals: full settle, exactly like dict."""
    graph = _ladder()
    graph.add_edge(4, 5, 1.0)  # second component
    csr = compile_csr(graph)
    # 5 exists but is unreachable from 0: the pending set never empties,
    # so the whole component is settled — identical to the dict engine.
    batch = dijkstra_many(csr, [0], targets={5})
    assert_trees_identical(dijkstra(graph, 0, targets={5}), batch[0])
    assert 5 not in batch[0].distance
    # an unknown terminal disables the early exit the same way
    batch = dijkstra_many(csr, [0], targets={3, "ghost"})
    assert_trees_identical(dijkstra(graph, 0, targets={3, "ghost"}), batch[0])


def test_batch_resolves_targets_once_and_leaves_callers_set_alone():
    """The batch resolves the target set once; the caller's set survives."""
    graph = _ladder()
    csr = compile_csr(graph)
    targets = {0, 3, "ghost"}
    snapshot = set(targets)
    batch = dijkstra_many(csr, [0, 1, 0], targets=targets)
    assert targets == snapshot
    assert list(batch) == [0, 1]
    for source in (0, 1):
        assert_trees_identical(
            dijkstra(graph, source, targets=targets), batch[source]
        )


# ---------------------------------------------------------------------------
# compiled-view structure
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(weighted_graphs())
def test_csr_structure_invariants(graph):
    csr = compile_csr(graph, epoch=7)
    n = len(list(graph.nodes()))
    assert csr.num_nodes == n
    assert csr.epoch == 7
    rows = csr.adjacency()
    assert len(rows) == n
    # every undirected edge appears once per endpoint, with equal weights
    entries = {
        (i, j): weight for i, row in enumerate(rows) for j, weight in row
    }
    assert len(entries) == sum(map(len, rows))
    assert all(entries[j, i] == weight for (i, j), weight in entries.items())
    assert csr.num_edges == sum(1 for _ in graph.edges()) == len(entries) // 2
    # interning is insertion order, index is its inverse
    assert csr.nodes == list(graph.nodes())
    assert all(csr.nodes[i] == node for node, i in csr.index.items())


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_unknown_source_raises_node_not_found():
    csr = compile_csr(_ladder())
    with pytest.raises(NodeNotFoundError):
        dijkstra_csr(csr, "ghost")


class _OneEdgeView:
    """A two-node topology exposing only the iteration surface.

    ``Graph`` refuses bad weights where they enter, but ``compile_csr``
    accepts any object with ``nodes()`` / ``neighbor_items()`` — so it must
    check on its own.
    """

    def __init__(self, weight):
        self.weight = weight

    def nodes(self):
        return iter(["a", "b"])

    def neighbor_items(self, node):
        other = "b" if node == "a" else "a"
        return [(other, self.weight)]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_compile_rejects_nonfinite_weights(bad):
    with pytest.raises(InvalidWeightError, match="finite non-negative"):
        compile_csr(_OneEdgeView(bad))


def test_compile_rejects_negative_weights():
    with pytest.raises(InvalidWeightError, match="finite non-negative"):
        compile_csr(_OneEdgeView(-1.0))


# ---------------------------------------------------------------------------
# cache integration
# ---------------------------------------------------------------------------


def test_cache_trees_identical_under_both_backends():
    """The cache's CSR trees equal the dict engine's, lazy and warmed.

    ``ShortestPathCache.tree`` runs ``dijkstra_csr`` per miss and ``warm``
    runs one ``dijkstra_many`` batch; both must reproduce the dict oracle
    on the GEANT topology the figures and the benchmark use.
    """
    from repro.analysis.common import build_real_network

    graph = build_real_network("GEANT", 20170605).graph
    lazy = ShortestPathCache(graph)
    warmed = ShortestPathCache(graph)
    warmed.warm(graph.nodes())
    assert warmed.misses == graph.num_nodes
    for origin in graph.nodes():
        expected = dijkstra(graph, origin)
        assert_trees_identical(expected, lazy.tree(origin))
        assert_trees_identical(expected, warmed.tree(origin))
    assert warmed.misses == graph.num_nodes  # every lookup was a hit


def test_cache_on_compiled_view_serves_kernel_rows():
    """A cache with no dict Graph behind it: rows, trees, membership."""
    graph = _ladder()
    csr = compile_csr(graph, epoch=5)
    cache = ShortestPathCache(compiled=csr, epoch=5)
    assert cache.compiled() is csr and cache.epoch == 5
    assert 0 in cache and "ghost" not in cache
    with pytest.raises(GraphError):
        cache.graph
    rows = cache.flat_tree(0)
    assert rows == dijkstra_rows(csr, 0)
    assert cache.flat_tree(0) is rows  # full rows are memoized
    assert cache.misses == 1
    assert_trees_identical(dijkstra(graph, 1), cache.tree(1))
    with pytest.raises(ValueError):
        ShortestPathCache()


def test_targeted_rows_are_never_memoized():
    """A partial row is returned as is; a later full lookup searches anew."""
    graph = _ladder()
    cache = ShortestPathCache(compiled=compile_csr(graph))
    partial = cache.flat_tree(0, targets={1})
    full = cache.flat_tree(0)
    assert cache.misses == 2
    assert full == dijkstra_rows(cache.compiled(), 0)
    assert partial[0][1] == full[0][1] and partial[1][1] == full[1][1]
    # a memoized full row serves a targeted lookup without a search
    assert cache.flat_tree(0, targets={1}) is full
    assert cache.misses == 2


def test_flat_tree_projects_an_already_cached_dict_tree():
    """Dict and flat consumers of one cache read the same search."""
    graph = _ladder()
    cache = ShortestPathCache(graph)
    tree = cache.tree(2)
    assert cache.flat_tree(2) == dijkstra_rows(cache.compiled(), 2)
    assert cache.misses == 1 and cache.hits == 1
    assert cache.tree(2) is tree
