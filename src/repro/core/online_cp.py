"""``Online_CP`` — the paper's online admission algorithm (Algorithm 2).

For each arriving request ``r_k`` (with ``K = 1``: one server hosts the whole
chain):

1. build ``G_k`` weighted by the normalized exponential costs
   ``w_e(k) = β^{1−B_e(k)/B_e} − 1`` and ``w_v(k) = α^{1−C_v(k)/C_v} − 1``
   (Section V-A, with ``α = β = 2|V|``);
2. for every server ``v`` with enough residual compute and
   ``w_v(k) < σ_v``, find a KMB Steiner tree ``T`` over ``{s_k, v} ∪ D_k``;
3. keep candidates with ``Σ_{e∈T} w_e(k) < σ_e``; price each by
   ``w(T) + w_v(k) + w(p_{v,u})`` where ``u = LCA(v, d_1, …, d_{|D_k|})``
   in ``T`` rooted at ``s_k`` — the detour that sends the processed stream
   from ``v`` back up to ``u`` before distribution;
4. admit via the cheapest candidate, reserving ``b_k`` per tree edge plus
   ``b_k`` per detour hop and ``C_v(SC_k)`` on the server; reject if no
   candidate survives.

Theorem 2 gives this policy an ``O(log |V|)`` competitive ratio.

:class:`OnlineCP` decides on integer node ids: one priced CSR graph per
request (:class:`~repro.core.cost_model.LinkPrices`), Dijkstra rows from a
:class:`~repro.graph.spcache.ShortestPathCache` on that view, the
index-space KMB (:func:`~repro.graph.steiner.kmb_steiner_tree_flat`), and
tree, detour and LCA arithmetic on parent walks.  Only the winning tree is
decoded into a ``Graph``.  It builds trees in a bounded best-first sweep
(:class:`_Bounds`): a server whose σ_e floor already fails ``σ_e`` is
never built, and the others are built in ascending winner-bound order
until a bound exceeds the best selection weight.  A server is skipped only
when its tree could neither pass ``σ_e`` nor beat or tie the winner, so
every decision equals the one that builds every tree.
:class:`OnlineCPReference` keeps that unpruned dict-graph decide, which
:class:`OnlineCP` replicates bit for bit — same decisions, same floats —
as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.admission import AdmissionPolicy
from repro.core.cost_model import CostModel, ExponentialCostModel, LinkPrices
from repro.core.online_base import OnlineAlgorithm, OnlineDecision, RejectReason
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import (
    DisconnectedGraphError,
    NodeNotFoundError,
    NotATreeError,
)
from repro.graph.graph import Graph, edge_key
from repro.graph.shortest_paths import INFINITY
from repro.graph.spcache import ShortestPathCache, VersionedCacheRegistry
from repro.graph.steiner import (
    FlatAdjacency,
    flat_edges,
    kmb_steiner_tree_cached,
    kmb_steiner_tree_flat,
)
from repro.graph.tree import RootedTree
from repro.network.sdn import SDNetwork
from repro.obs import (
    inc as _obs_inc,
    span as _obs_span,
    trace_instant as _obs_instant,
)
from repro.workload.request import MulticastRequest

Node = Hashable

#: Relative margin of both bound tests.  A bound adds up distances from
#: other rows and in another order than the weight it bounds, so it may
#: sit a few ulps above that weight; 1e-9 is far above such rounding.
_BOUND_MARGIN = 1e-9


@dataclass
class _Candidate:
    """One server's candidate pseudo-multicast tree."""

    server: Node
    tree: Graph
    rooted: RootedTree
    meeting_point: Node  # u = LCA(v, destinations)
    selection_weight: float


class OnlineCP(OnlineAlgorithm):
    """Algorithm 2 with the exponential cost model and threshold policy.

    Args:
        network: the capacitated SDN (mutated as requests are admitted).
        cost_model: resource pricing; defaults to the paper's exponential
            model with ``α = β = 2|V|``.  Pass
            :class:`~repro.core.cost_model.LinearCostModel` to reproduce the
            ablation discussed in Section V-A.
        policy: admission thresholds; defaults to ``σ_v = σ_e = |V| − 1``.
    """

    def __init__(
        self,
        network: SDNetwork,
        cost_model: Optional[CostModel] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        super().__init__(network)
        self._model = cost_model or ExponentialCostModel.for_network(network)
        self._policy = policy or AdmissionPolicy.for_network(network)
        # Links are priced once per network epoch; each decision compiles
        # its own priced graph from those prices and keeps nothing else.
        self._prices = LinkPrices(self._model, network)

    @property
    def cost_model(self) -> CostModel:
        """The resource pricing model in use."""
        return self._model

    @property
    def policy(self) -> AdmissionPolicy:
        """The admission thresholds in use."""
        return self._policy

    # ------------------------------------------------------------------
    # decision procedure
    # ------------------------------------------------------------------
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

        prices = self._prices
        csr = prices.priced_csr(request.bandwidth)
        sp_cache = ShortestPathCache(compiled=csr, epoch=csr.epoch)
        nodes = csr.nodes
        index = csr.index
        source_dist = sp_cache.flat_tree(request.source)[0]
        source = index[request.source]
        destinations = sorted(request.destinations, key=repr)
        dest_ids: List[int] = []
        for destination in destinations:
            dest_id = index.get(destination)
            if dest_id is None or source_dist[dest_id] == INFINITY:
                return self._reject(request, RejectReason.DISCONNECTED)
            dest_ids.append(dest_id)

        # The source's and the destinations' rows may be read at any other
        # terminal, so they are full; a server that is neither is read
        # only at the destinations, so its search stops once they settle.
        full = set(dest_ids)
        full.add(source)
        dest_set = set(destinations)

        def rows(terminal: int) -> Tuple[List[float], List[int]]:
            if terminal in full:
                return sp_cache.flat_tree(nodes[terminal])
            return sp_cache.flat_tree(nodes[terminal], targets=dest_set)

        # Screen: σ_v, reachability and the σ_e floor.  The survivors carry
        # their winner bound into the sweep.
        sigma_e_limit = self._policy.sigma_e * (1.0 + _BOUND_MARGIN)
        bounds: Optional[_Bounds] = None
        screened: List[Tuple[float, int, Node, int, float]] = []
        saw_server_pass = False
        floored = 0
        for position, server in enumerate(candidates):
            server_weight = self._model.node_weight(network, server)
            if not self._policy.server_admissible(server_weight):
                continue
            saw_server_pass = True
            server_id = index[server]
            if source_dist[server_id] == INFINITY:
                continue
            if bounds is None:
                bounds = _Bounds(
                    source_dist,
                    dest_ids,
                    [rows(d)[0] for d in dest_ids],
                    prices.bound_slack,
                )
            floor, bound = bounds.of(server_id, server_weight)
            if floor > sigma_e_limit:
                # Every tree over these terminals fails σ_e, and KMB would
                # have built one: each terminal is reachable from the
                # source.  So it counts as a built tree.
                floored += 1
                continue
            screened.append((bound, position, server, server_id, server_weight))
        saw_tree_built = floored > 0

        # Sweep: ascending (bound, position); the minimum by the exact
        # (selection, position), so an exact tie goes to the server listed
        # first.  Once a bound exceeds the winner's weight by the margin,
        # no later server can beat or tie it.
        screened.sort()
        price = prices.price
        link_at = prices.link_at
        best: Optional[Tuple[float, int, Node, FlatAdjacency, int]] = None
        limit = INFINITY
        evaluated = 0
        for bound, position, server, server_id, server_weight in screened:
            if bound > limit:
                break
            evaluated += 1
            try:
                tree = kmb_steiner_tree_flat(
                    csr, [source, server_id] + dest_ids, rows
                )
            except DisconnectedGraphError:
                continue
            tree_weight = sum(
                [price[link_at[u][v]] for u, v, _ in flat_edges(tree)]
            )
            saw_tree_built = True
            if not self._policy.tree_admissible(tree_weight):
                continue
            with _obs_span("lca_correction"):
                detour = _detour(tree, source, server_id, dest_ids, nodes)
                detour_weight = sum(
                    [price[link_at[u][v]] for u, v in zip(detour, detour[1:])]
                )
            selection = tree_weight + server_weight + detour_weight
            if best is None or (selection, position) < best[:2]:
                best = (selection, position, server, tree, detour[-1])
                limit = selection + abs(selection) * _BOUND_MARGIN
        if evaluated:
            _obs_inc("online_cp.candidates", evaluated)
        if floored:
            _obs_inc("online_cp.pruned.sigma_e", floored)
        if len(screened) > evaluated:
            _obs_inc("online_cp.pruned.bound", len(screened) - evaluated)

        if best is None:
            return self._reject(
                request, _no_candidate_reason(saw_tree_built, saw_server_pass)
            )

        selection, _, server, tree, meeting = best
        graph = Graph.from_adjacency(
            {
                nodes[u]: {nodes[v]: w for v, w in row.items()}
                for u, row in tree.items()
            }
        )
        return self._select(
            request,
            _Candidate(
                server=server,
                tree=graph,
                rooted=RootedTree(graph, request.source),
                meeting_point=nodes[meeting],
                selection_weight=selection,
            ),
        )

    def _select(
        self, request: MulticastRequest, best: _Candidate
    ) -> OnlineDecision:
        """Admit ``request`` through the winning candidate."""
        pseudo = self._build_pseudo_tree(request, best)
        _obs_instant(
            "online_cp.selected",
            server=str(best.server),
            selection_weight=best.selection_weight,
        )
        return self._admit(request, pseudo, best.selection_weight)

    def _build_pseudo_tree(
        self, request: MulticastRequest, candidate: _Candidate
    ) -> PseudoMulticastTree:
        """Translate the winning Steiner tree into routing + real costs."""
        network = self._network
        rooted = candidate.rooted
        source_path = tuple(
            reversed(rooted.path_between(candidate.server, request.source))
        )
        source_path_edges = set(_path_edges(source_path))
        distribution = tuple(
            (u, v)
            for u, v, _ in candidate.tree.edges()
            if edge_key(u, v) not in source_path_edges
        )
        return_path = tuple(
            rooted.path_between(candidate.server, candidate.meeting_point)
        )
        return_paths = (return_path,) if len(return_path) > 1 else ()

        bandwidth_cost = 0.0
        for u, v, _ in candidate.tree.edges():
            bandwidth_cost += network.link_unit_cost(u, v) * request.bandwidth
        for u, v in _path_edges(return_path):
            bandwidth_cost += network.link_unit_cost(u, v) * request.bandwidth
        compute_cost = network.chain_cost(
            candidate.server, request.compute_demand
        )
        return PseudoMulticastTree(
            request=request,
            servers=(candidate.server,),
            server_paths={candidate.server: source_path},
            distribution_edges=distribution,
            return_paths=return_paths,
            bandwidth_cost=bandwidth_cost,
            compute_cost=compute_cost,
        )


class OnlineCPReference(OnlineCP):
    """The dict-``Graph`` decide that :class:`OnlineCP` replicates.

    Builds ``G_k`` with :meth:`CostModel.weight_graph`, reads Dijkstra
    trees from an epoch-keyed :class:`ShortestPathCache`, runs
    :func:`kmb_steiner_tree_cached` per candidate server, re-prices every
    tree edge through :meth:`CostModel.edge_weight` and finds the meeting
    point with :class:`RootedTree`.  Kept as the differential oracle, like
    :func:`~repro.core.appro_multi.appro_multi_reference`: tests and
    benchmarks run it, production does not.
    """

    def __init__(
        self,
        network: SDNetwork,
        cost_model: Optional[CostModel] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        super().__init__(network, cost_model, policy)
        # Congestion-priced graphs depend on residual state, so cached
        # Dijkstra trees are keyed on the network epoch: consecutive
        # decisions without an admission in between (rejections do not
        # touch capacities) reuse both the weighted graph and its trees.
        self._sp_registry = VersionedCacheRegistry()

    def _weighted_cache(self, request: MulticastRequest) -> ShortestPathCache:
        """Shortest-path cache on the congestion-priced graph for ``b_k``."""
        network = self._network
        return self._sp_registry.get(
            ("weighted", request.bandwidth),
            network.epoch,
            lambda: self._model.weight_graph(
                network, min_residual_bandwidth=request.bandwidth
            ),
        )

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

        sp_cache = self._weighted_cache(request)
        weighted = sp_cache.graph
        destinations = sorted(request.destinations, key=repr)
        source_tree = sp_cache.tree(request.source)
        if any(not source_tree.reaches(d) for d in destinations):
            return self._reject(request, RejectReason.DISCONNECTED)

        best: Optional[_Candidate] = None
        saw_server_pass = False
        saw_tree_built = False
        for server in candidates:
            server_weight = self._model.node_weight(network, server)
            if not self._policy.server_admissible(server_weight):
                continue
            saw_server_pass = True
            if not source_tree.reaches(server):
                continue
            _obs_inc("online_cp.candidates")
            terminals = [request.source, server] + destinations
            try:
                tree = kmb_steiner_tree_cached(weighted, sp_cache, terminals)
            except DisconnectedGraphError:
                continue
            tree_weight = sum(
                self._model.edge_weight(network, u, v)
                for u, v, _ in tree.edges()
            )
            saw_tree_built = True
            if not self._policy.tree_admissible(tree_weight):
                continue
            with _obs_span("lca_correction"):
                rooted = RootedTree(tree, request.source)
                meeting = rooted.lca_of_set([server] + destinations)
                detour_weight = sum(
                    self._model.edge_weight(network, u, v)
                    for u, v in _path_edges(
                        rooted.path_between(server, meeting)
                    )
                )
            selection = tree_weight + server_weight + detour_weight
            if best is None or selection < best.selection_weight:
                best = _Candidate(
                    server=server,
                    tree=tree,
                    rooted=rooted,
                    meeting_point=meeting,
                    selection_weight=selection,
                )

        if best is None:
            return self._reject(
                request, _no_candidate_reason(saw_tree_built, saw_server_pass)
            )
        return self._select(request, best)


def _no_candidate_reason(
    saw_tree_built: bool, saw_server_pass: bool
) -> RejectReason:
    """Why no candidate survived: the furthest test any server reached."""
    if saw_tree_built:
        return RejectReason.TREE_THRESHOLD
    if saw_server_pass:
        return RejectReason.DISCONNECTED
    return RejectReason.SERVER_THRESHOLD


class _Bounds:
    """Lower bounds on one request's candidate trees, from terminal rows.

    Built from the source's and every destination's full distance row on
    the priced solver graph.  For server ``v``, with ``d`` the solver
    distance and ``u = LCA(v, D)`` in the tree rooted at ``s``:

    - the σ_e floor ``F_v`` is the largest distance between two of ``v``'s
      terminals ``{s, v} ∪ D``.  The tree holds a path between every pair,
      so ``F_v`` bounds its weight;
    - the winner bound ``B_v = w_v + max(d(s, v) + min_d d(v, d), F_v)``
      bounds the selection weight.  The tree holds ``s → u → v`` and a
      branch ``u → d*`` edge-disjoint from ``u → v``, and the detour adds
      ``u → v`` once more.

    Distances include the tie-break and the weights they bound do not, so
    both bounds are lowered by ``slack`` (:attr:`LinkPrices.bound_slack`).
    """

    __slots__ = ("_source_dist", "_dest_dists", "_floor", "_slack")

    def __init__(
        self,
        source_dist: List[float],
        dest_ids: List[int],
        dest_dists: List[List[float]],
        slack: float,
    ) -> None:
        floor = 0.0
        for rank, dist in enumerate(dest_dists):
            floor = max(
                floor,
                source_dist[dest_ids[rank]],
                *[dist[j] for j in dest_ids[rank + 1 :]],
            )
        self._source_dist = source_dist
        self._dest_dists = dest_dists
        self._floor = floor
        self._slack = slack

    def of(self, server: int, server_weight: float) -> Tuple[float, float]:
        """``(F_v, B_v)`` of the server with index ``server``."""
        to_server = self._source_dist[server]
        far = self._floor if self._floor > to_server else to_server
        near = INFINITY
        for dist in self._dest_dists:
            distance = dist[server]
            if distance > far:
                far = distance
            if distance < near:
                near = distance
        through = to_server + near
        slack = self._slack
        return (
            far - slack,
            server_weight + (through if through > far else far) - slack,
        )


def _detour(
    tree: FlatAdjacency,
    root: int,
    server: int,
    destinations: List[int],
    nodes: List[Node],
) -> List[int]:
    """The tree path from ``server`` up to ``LCA(server, destinations)``.

    ``tree`` is rooted at ``root`` by a parent walk, with
    :class:`RootedTree`'s checks (the root is in the tree; the tree is
    connected with one edge fewer than nodes).  The LCA of a set holding
    ``server`` lies on ``server``'s root path: it is the highest point at
    which a destination's own root path joins it.  The result ends at the
    meeting point.

    Raises:
        NodeNotFoundError: if ``root`` is not in ``tree``.
        NotATreeError: if ``tree`` is not a tree.
    """
    if root not in tree:
        raise NodeNotFoundError(nodes[root])
    parent: Dict[int, int] = {root: -1}
    frontier = [root]
    for node in frontier:
        for neighbor in tree[node]:
            if neighbor not in parent:
                parent[neighbor] = node
                frontier.append(neighbor)
    size = len(tree)
    edges = sum(len(row) for row in tree.values()) // 2
    if edges != size - 1 or len(parent) != size:
        raise NotATreeError(
            f"graph with {size} nodes and {edges} edges is not a tree"
        )
    up = [server]
    node = server
    while node != root:
        node = parent[node]
        up.append(node)
    height = {node: depth for depth, node in enumerate(up)}
    top = 0
    for destination in destinations:
        node = destination
        while node not in height:
            node = parent[node]
        if height[node] > top:
            top = height[node]
    return up[: top + 1]


def _path_edges(path) -> List[Tuple[Node, Node]]:
    """Return canonical edge keys along a node path."""
    return [edge_key(u, v) for u, v in zip(path, path[1:])]
