"""Baseline algorithms the paper compares against.

- :func:`alg_one_server` — the state of the art for single-request
  NFV-multicast (Zhang et al. [22], the paper's ``Alg_One_Server``): route
  the stream to one server, then span the destinations with an
  MST-of-metric-closure tree; try every server and keep the cheapest
  combination.
- :class:`SPOnline` — the online ``SP`` heuristic of Section VI-A: prune
  resource-exhausted elements, treat every remaining link as weight 1, and
  route via a shortest path to a server followed by a shortest-path tree to
  the destinations, ignoring load entirely.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.online_base import OnlineAlgorithm, OnlineDecision, RejectReason
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import InfeasibleRequestError
from repro.graph.graph import Graph, edge_key
from repro.graph.mst import prim_mst
from repro.graph.shortest_paths import ShortestPathTree, dijkstra
from repro.graph.tree import prune_leaves
from repro.network.sdn import SDNetwork
from repro.obs import inc as _obs_inc
from repro.workload.request import MulticastRequest

Node = Hashable


# ----------------------------------------------------------------------
# Alg_One_Server (Zhang et al. [22])
# ----------------------------------------------------------------------
def alg_one_server(
    network: SDNetwork, request: MulticastRequest
) -> PseudoMulticastTree:
    """Single-server baseline for the uncapacitated problem.

    Implements the description in Section VI-A of the paper: the algorithm
    *first* routes the traffic of ``r_k`` to a server — the stream travels
    ``s_k → v`` for processing and the processed stream returns to the
    source — and *then* multicasts over an MST-of-metric-closure tree built
    over the destinations and rooted at the source (the expansion of the
    complete-graph MST into its underlying shortest paths).  Every server is
    priced and the cheapest combination of server round-trip and destination
    subgraph wins.

    This is the "worst scenario" routing of the pseudo-multicast-tree
    discussion (Section V-B): processed packets come all the way back to
    ``s_k`` before distribution, which is exactly why the joint
    server/route optimization of ``Appro_Multi`` beats it — and by more on
    larger networks, where the round trip grows.

    Raises:
        InfeasibleRequestError: if no server can reach the source and every
            destination.
    """
    from repro.core.auxiliary import scale_graph  # local: avoids cycle

    scaled = scale_graph(network.graph, request.bandwidth)
    destinations = sorted(request.destinations, key=repr)
    # Searches run on the materialized b_k-scaled graph: the topology cache's
    # lazily scaled distances associate the float multiplication differently
    # (sum(w)*b vs sum(w*b)), and this reproduction pins bit-identical series.
    # repro-lint: disable=RL001
    source_tree = dijkstra(scaled, request.source)
    unreachable = [d for d in destinations if not source_tree.reaches(d)]
    if unreachable:
        raise InfeasibleRequestError(
            f"request {request.request_id}: destinations {unreachable!r} "
            "unreachable"
        )

    # Destination tree rooted at the source: metric-closure MST over
    # {s_k} ∪ D_k, expanded into its underlying shortest paths.
    terminal_trees: Dict[Node, ShortestPathTree] = {
        d: dijkstra(scaled, d)  # repro-lint: disable=RL001 (same as above)
        for d in destinations
    }
    terminal_trees[request.source] = source_tree
    terminals = [request.source] + destinations
    closure = Graph()
    for terminal in terminals:
        closure.add_node(terminal)
    for i, a in enumerate(terminals):
        tree_a = terminal_trees[a]
        for b in terminals[i + 1 :]:
            closure.add_edge(a, b, tree_a.distance[b])
    closure_mst = prim_mst(closure)
    subgraph = Graph()
    for node in terminals:
        subgraph.add_node(node)
    for a, b, _ in closure_mst.edges():
        path = terminal_trees[a].path_to(b)
        for u, v in zip(path, path[1:]):
            subgraph.add_edge(u, v, scaled.weight(u, v))
    subgraph = prune_leaves(subgraph, keep=terminals)
    subgraph_cost = subgraph.total_weight()
    _obs_inc("alg_one_server.trees")

    # Pick the server minimizing the processing round trip + chain cost.
    best: Optional[Tuple[float, Node]] = None
    priced = 0
    for server in network.server_nodes:
        if not source_tree.reaches(server):
            continue
        priced += 1
        round_trip = 2.0 * source_tree.distance[server]
        chain_cost = network.chain_cost(server, request.compute_demand)
        total = round_trip + chain_cost + subgraph_cost
        if best is None or total < best[0]:
            best = (total, server)
    _obs_inc("alg_one_server.combinations_evaluated", priced)

    if best is None:
        raise InfeasibleRequestError(
            f"request {request.request_id}: no reachable server"
        )
    _, server = best
    chain_cost = network.chain_cost(server, request.compute_demand)
    source_path = tuple(source_tree.path_to(server))
    path_cost = sum(
        scaled.weight(u, v) for u, v in zip(source_path, source_path[1:])
    )
    return_path = tuple(reversed(source_path))
    return PseudoMulticastTree(
        request=request,
        servers=(server,),
        server_paths={server: source_path},
        distribution_edges=tuple(
            (u, v) for u, v, _ in subgraph.edges()
        ),
        return_paths=(return_path,) if len(return_path) > 1 else (),
        bandwidth_cost=2.0 * path_cost + subgraph_cost,
        compute_cost=chain_cost,
    )


# ----------------------------------------------------------------------
# SP (online shortest-path heuristic)
# ----------------------------------------------------------------------
class SPOnline(OnlineAlgorithm):
    """The load-oblivious online baseline of Section VI-A.

    For each request: drop links/servers without enough residual resources,
    give every remaining link weight 1, and for each candidate server ``v``
    combine a shortest (fewest-hop) path ``s_k → v`` with the shortest-path
    tree from ``v`` to the destinations; the candidate with the fewest total
    hops is admitted if its resources can be reserved.
    """

    def _decide(self, request: MulticastRequest) -> OnlineDecision:
        network = self._network
        demand = request.compute_demand
        candidates = [
            v
            for v in network.server_nodes
            if network.server(v).can_allocate(demand)
        ]
        if not candidates:
            return self._reject(request, RejectReason.NO_FEASIBLE_SERVER)

        # Epoch-keyed hop-count trees: identical to running Dijkstra on a
        # freshly built unit graph, but shared across same-epoch requests.
        sp_cache = network.unit_path_cache(request.bandwidth)

        destinations = sorted(request.destinations, key=repr)
        source_tree = sp_cache.tree(request.source)
        if any(not source_tree.reaches(d) for d in destinations):
            return self._reject(request, RejectReason.DISCONNECTED)

        best: Optional[Tuple[float, Node, Tuple, List]] = None
        for server in sorted(candidates, key=repr):
            if not source_tree.reaches(server):
                continue
            server_tree = sp_cache.tree(server)
            if any(not server_tree.reaches(d) for d in destinations):
                continue
            source_path = tuple(source_tree.path_to(server))
            union_edges = set()
            for destination in destinations:
                path = server_tree.path_to(destination)
                for u, v in zip(path, path[1:]):
                    union_edges.add(edge_key(u, v))
            hops = (len(source_path) - 1) + len(union_edges)
            if best is None or hops < best[0]:
                best = (hops, server, source_path, sorted(union_edges, key=repr))

        if best is None:
            return self._reject(request, RejectReason.DISCONNECTED)

        hops, server, source_path, union_edges = best
        usage: Counter = Counter()
        for u, v in zip(source_path, source_path[1:]):
            usage[edge_key(u, v)] += 1
        for edge in union_edges:
            usage[edge] += 1
        bandwidth_cost = sum(
            count * request.bandwidth * network.link_unit_cost(u, v)
            for (u, v), count in usage.items()
        )
        tree = PseudoMulticastTree(
            request=request,
            servers=(server,),
            server_paths={server: source_path},
            distribution_edges=tuple(union_edges),
            return_paths=(),
            bandwidth_cost=bandwidth_cost,
            compute_cost=network.chain_cost(server, demand),
        )
        return self._admit(request, tree, float(hops))
