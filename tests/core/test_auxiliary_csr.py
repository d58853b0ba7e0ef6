"""Property net over the CSR-compiled auxiliary graph ``G_k^i``.

The CSR-native core never materializes the auxiliary graph — it keeps the
substrate in one epoch-stamped compiled view and swaps only the virtual
source's edge block across the combination sweep (see
:class:`repro.core.AuxiliaryCSR`).  These tests pin that representation to
the paper's definition on *tie-heavy* random instances (weights drawn from
{1, 2}, so shortest paths, closure edges, and MSTs are saturated with
ties — exactly where a tie-break divergence between the flat core and the
dict pipeline would surface):

1. **Construction identity** — for a random server subset, the decoded
   compiled auxiliary graph (virtual row included) is node-for-node,
   edge-for-edge, and weight-for-weight identical to the dict-built
   ``G_k^i`` of :func:`explicit_auxiliary_graph`.  Weights are compared
   with exact float equality: both sides must compute the very same
   ``unit · b_k`` products.
2. **Workspace isolation** — one evaluator's scratch arrays are reused
   across the whole sweep; evaluating A → B → A must return bit-identical
   trees for A both times (dict insertion order included), equal to a
   clean-room evaluator that never saw B.

Shrunk hypothesis failures name a tiny instance, so a tie-break regression
is replayable in isolation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    VIRTUAL_SOURCE,
    CSRCombinationEvaluator,
    build_context,
    explicit_auxiliary_graph,
    iter_combinations,
)
from repro.exceptions import InfeasibleRequestError
from repro.graph import Graph, edge_key
from repro.network import build_sdn
from repro.nfv import ServiceChain, all_function_types
from repro.workload import MulticastRequest

#: Two distinct weights only: maximally tie-heavy while keeping the
#: auxiliary distances non-trivial.
TIE_WEIGHTS = (1.0, 2.0)


@st.composite
def tie_heavy_instances(draw):
    """A connected tie-heavy topology plus a well-formed request on it."""
    n = draw(st.integers(6, 14))
    seed = draw(st.integers(0, 10_000))
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    # spanning path guarantees connectivity ...
    for u in range(n - 1):
        graph.add_edge(u, u + 1, draw(st.sampled_from(TIE_WEIGHTS)))
    # ... extra chords create alternative equal-cost routes
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(TIE_WEIGHTS),
            ),
            max_size=2 * n,
        )
    )
    for u, v, w in extras:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, w)

    network = build_sdn(graph, seed=seed, server_fraction=0.4)
    nodes = sorted(graph.nodes())
    source = draw(st.sampled_from(nodes))
    others = [x for x in nodes if x != source]
    count = draw(st.integers(1, min(4, len(others))))
    destinations = draw(
        st.lists(
            st.sampled_from(others), min_size=count, max_size=count,
            unique=True,
        )
    )
    bandwidth = draw(st.sampled_from((0.5, 1.0, 2.0)))
    kinds = draw(
        st.lists(
            st.sampled_from(all_function_types()), min_size=1, max_size=2,
            unique=True,
        )
    )
    request = MulticastRequest.create(
        1, source, destinations, bandwidth, ServiceChain.of(*kinds)
    )
    return network, request


def build_csr_context(network, request):
    """The exact context construction the solvers use, cache-backed."""
    chain_cost = {
        v: network.chain_cost(v, request.compute_demand)
        for v in network.server_nodes
    }
    return build_context(
        graph=network.graph,
        source=request.source,
        destinations=sorted(request.destinations, key=repr),
        servers=network.server_nodes,
        chain_cost=chain_cost,
        bandwidth=request.bandwidth,
        cache=network.path_cache(),
    )


def canonical_edges(graph):
    """``{canonical edge key: weight}`` — order-free, weight-exact."""
    return {edge_key(u, v): w for u, v, w in graph.edges()}


def tree_fingerprint(solution):
    """Every observable field of a solution, insertion order included."""
    if solution is None:
        return None
    tree = solution.tree
    return (
        solution.combination,
        solution.used_servers,
        solution.cost,
        tuple(tree.nodes()),
        tuple(tree.edges()),
    )


@settings(max_examples=40, deadline=None)
@given(tie_heavy_instances(), st.data())
def test_compiled_auxiliary_graph_matches_explicit_construction(
    instance, data
):
    network, request = instance
    try:
        ctx = build_csr_context(network, request)
    except InfeasibleRequestError:
        return
    assert ctx.flat is not None, (
        "a cache-backed context must carry the flat workspace"
    )
    evaluator = CSRCombinationEvaluator(ctx)
    servers = list(ctx.candidate_servers)
    size = data.draw(st.integers(1, len(servers)))
    combination = tuple(
        data.draw(
            st.lists(
                st.sampled_from(servers), min_size=size, max_size=size,
                unique=True,
            )
        )
    )

    member_nodes, members, zero = evaluator._ids(combination)
    assert member_nodes == combination  # all candidates are reachable
    aux = ctx.flat.aux
    aux.set_combination(members, zero)

    compiled = aux.to_graph()
    explicit = explicit_auxiliary_graph(ctx, combination)
    assert set(compiled.nodes()) == set(explicit.nodes())
    assert canonical_edges(compiled) == canonical_edges(explicit)

    # the virtual row is the combination's entire mutable surface:
    # same servers, and the very same scaled-weight float objects the
    # dict context holds
    index = ctx.flat.index
    nodes = ctx.flat.nodes
    assert aux.virtual_index == ctx.flat.csr.num_nodes
    assert [nodes[v] for v, _ in aux.virtual_row()] == list(combination)
    for v, weight in aux.virtual_row():
        assert weight == explicit.weight(VIRTUAL_SOURCE, nodes[v])
    for node in combination:
        assert (
            aux.virtual_weight[index[node]]
            is ctx.virtual_weight[node]
        )


@settings(max_examples=25, deadline=None)
@given(tie_heavy_instances(), st.data())
def test_workspace_reuse_never_leaks_between_combinations(instance, data):
    network, request = instance
    try:
        ctx = build_csr_context(network, request)
    except InfeasibleRequestError:
        return
    limit = min(2, len(ctx.candidate_servers))
    combos = list(iter_combinations(ctx.candidate_servers, limit))
    if len(combos) < 2:
        return
    a = data.draw(st.sampled_from(combos))
    b = data.draw(st.sampled_from([c for c in combos if c != a]))

    # clean room: an evaluator whose history is exactly [A]
    clean = tree_fingerprint(
        CSRCombinationEvaluator(build_csr_context(network, request))
        .evaluate(a)
    )

    evaluator = CSRCombinationEvaluator(ctx)
    first = tree_fingerprint(evaluator.evaluate(a))
    evaluator.evaluate(b)
    again = tree_fingerprint(evaluator.evaluate(a))

    assert first == clean
    assert again == clean

    # the shared AuxiliaryCSR view itself round-trips A -> B -> A
    ids_a = evaluator._ids(a)
    ids_b = evaluator._ids(b)
    aux = ctx.flat.aux
    aux.set_combination(ids_a[1], ids_a[2])
    snapshot = canonical_edges(aux.to_graph())
    aux.set_combination(ids_b[1], ids_b[2])
    aux.set_combination(ids_a[1], ids_a[2])
    assert canonical_edges(aux.to_graph()) == snapshot
