"""Property-based tests over the full solver stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OnlineCP,
    SPOnline,
    appro_multi,
    validate_pseudo_tree,
)
from repro.core.cost_model import ExponentialCostModel
from repro.network import build_sdn
from repro.nfv import all_function_types, ServiceChain
from repro.topology import waxman_graph
from repro.workload import MulticastRequest


@st.composite
def solver_instances(draw):
    """A provisioned network plus a random well-formed request on it."""
    seed = draw(st.integers(0, 10_000))
    graph, _ = waxman_graph(draw(st.integers(8, 24)), alpha=0.45,
                            beta=0.45, seed=seed)
    network = build_sdn(graph, seed=seed, server_fraction=0.25)
    nodes = sorted(graph.nodes())
    source = draw(st.sampled_from(nodes))
    others = [n for n in nodes if n != source]
    count = draw(st.integers(1, min(5, len(others))))
    destinations = draw(
        st.lists(st.sampled_from(others), min_size=count, max_size=count,
                 unique=True)
    )
    bandwidth = draw(st.floats(50.0, 200.0, allow_nan=False))
    kinds = draw(
        st.lists(st.sampled_from(all_function_types()), min_size=1,
                 max_size=3, unique=True)
    )
    request = MulticastRequest.create(
        1, source, destinations, bandwidth, ServiceChain.of(*kinds)
    )
    return network, request


@settings(max_examples=25, deadline=None)
@given(solver_instances(), st.integers(1, 3))
def test_appro_multi_always_returns_valid_trees(instance, k):
    network, request = instance
    tree = appro_multi(network, request, max_servers=k)
    validate_pseudo_tree(network, tree)
    assert 1 <= tree.num_servers <= k
    assert tree.total_cost > 0
    # every destination is a node of the routing structure
    touched = set()
    for path in tree.server_paths.values():
        touched.update(path)
    for u, v in tree.distribution_edges:
        touched.update((u, v))
    assert set(request.destinations) <= touched


@settings(max_examples=15, deadline=None)
@given(solver_instances(), st.data())
def test_online_algorithms_never_overcommit(instance, data):
    network, _ = instance
    algorithm_kind = data.draw(st.sampled_from(["cp", "sp"]))
    if algorithm_kind == "cp":
        algorithm = OnlineCP(
            network, cost_model=ExponentialCostModel(alpha=8.0, beta=8.0)
        )
    else:
        algorithm = SPOnline(network)
    nodes = sorted(network.graph.nodes())
    for k in range(2, 30):
        source = data.draw(st.sampled_from(nodes))
        others = [n for n in nodes if n != source]
        destination = data.draw(st.sampled_from(others))
        request = MulticastRequest.create(
            k, source, [destination],
            data.draw(st.floats(50.0, 200.0, allow_nan=False)),
            ServiceChain.of(all_function_types()[k % 5]),
        )
        decision = algorithm.process(request)
        if decision.admitted:
            validate_pseudo_tree(network, decision.tree)
    for link in network.links():
        assert -1e-6 <= link.residual <= link.capacity + 1e-6
    for server in network.servers():
        assert -1e-6 <= server.residual <= server.capacity + 1e-6


@settings(max_examples=15, deadline=None)
@given(solver_instances())
def test_admit_then_depart_is_lossless(instance):
    network, request = instance
    algorithm = SPOnline(network)
    decision = algorithm.process(request)
    if not decision.admitted:
        return
    algorithm.depart(request.request_id)
    for link in network.links():
        assert abs(link.residual - link.capacity) < 1e-6
    for server in network.servers():
        assert abs(server.residual - server.capacity) < 1e-6


# -- epoch invalidation: caches can never serve a stale residual graph ----

from repro.graph import dijkstra


@st.composite
def mutation_sequences(draw):
    """A network plus a random sequence of allocations and releases."""
    seed = draw(st.integers(0, 5_000))
    graph, _ = waxman_graph(14, alpha=0.5, beta=0.5, seed=seed)
    network = build_sdn(graph, seed=seed, server_fraction=0.3)
    edges = sorted((u, v) for u, v, _ in graph.edges())
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "release"]),
                st.integers(0, len(edges) - 1),
                st.floats(1.0, 50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return network, edges, steps


@settings(max_examples=20, deadline=None)
@given(mutation_sequences(), st.floats(10.0, 120.0, allow_nan=False))
def test_epoch_invalidation_tracks_every_mutation(sequence, threshold):
    """After ANY allocate/release, the residual path cache must agree with
    a fresh Dijkstra on the freshly recomputed residual graph."""
    network, edges, steps = sequence
    origin = network.server_nodes[0]
    for action, index, amount in steps:
        u, v = edges[index]
        epoch_before = network.epoch
        link = network.link(u, v)
        if action == "alloc":
            network.allocate_bandwidth(u, v, min(amount, link.residual))
        else:
            allocated = link.capacity - link.residual
            network.release_bandwidth(u, v, min(amount, allocated))
        assert network.epoch == epoch_before + 1

        cache = network.residual_path_cache(min_bandwidth=threshold)
        fresh_graph = network.residual_graph(threshold)
        assert sorted(map(repr, cache.graph.nodes())) == sorted(
            map(repr, fresh_graph.nodes())
        )
        if not cache.graph.has_node(origin):
            continue
        cached_tree = cache.tree(origin)
        fresh_tree = dijkstra(fresh_graph, origin)
        assert cached_tree.distance == fresh_tree.distance


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2_000))
def test_restore_and_reset_invalidate_caches(seed):
    """snapshot/restore and reset also bump the epoch, so caches built
    before them are never served after."""
    graph, _ = waxman_graph(12, alpha=0.5, beta=0.5, seed=seed)
    network = build_sdn(graph, seed=seed, server_fraction=0.3)
    origin = network.server_nodes[0]
    threshold = 50.0

    snapshot = network.snapshot()
    before = network.residual_path_cache(threshold)
    u, v, _ = next(iter(network.graph.edges()))
    network.allocate_bandwidth(u, v, network.link(u, v).residual)
    after_alloc = network.residual_path_cache(threshold)
    assert after_alloc is not before

    network.restore(snapshot)
    after_restore = network.residual_path_cache(threshold)
    assert after_restore is not after_alloc
    if after_restore.graph.has_node(origin):
        assert after_restore.tree(origin).distance == dijkstra(
            network.residual_graph(threshold), origin
        ).distance

    network.reset()
    assert network.residual_path_cache(threshold) is not after_restore
