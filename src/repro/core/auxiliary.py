"""Auxiliary-graph construction for ``Appro_Multi`` (Section IV-B).

For a request ``r_k`` and a server combination ``V_S^i``, the paper builds an
auxiliary graph ``G_k^i``:

- every physical edge ``e`` keeps weight ``c_e · b_k``;
- a *virtual source* ``s'_k`` is added, wired to each ``v ∈ V_S^i`` by an
  edge of weight ``(shortest-path cost s_k → v) · b_k + c_v(SC_k)``;
- any physical edge ``(s_k, v)`` with ``v ∈ V_S^i`` is re-weighted to zero
  (the processed stream returning over that hop is not charged again).

``Appro_Multi`` then runs the KMB Steiner heuristic on ``G_k^i`` with
terminals ``{s'_k} ∪ D_k`` for every combination and keeps the cheapest tree.

Running text-book KMB per combination would repeat ``|D_k| + 1`` Dijkstras
for each of up to ``Σ_{j≤K} C(|V_S|, j)`` combinations.  This module instead
precomputes one Dijkstra per terminal/server/source (an
:class:`AuxiliaryContext`) and evaluates each combination analytically:
every auxiliary-graph shortest path decomposes into at most two unmodified
segments joined at the zero-weight edges around ``s_k``, so closure
distances — and the actual paths realizing them — come straight from the
cached Dijkstra trees.  The result is *exactly* KMB on ``G_k^i``, orders of
magnitude faster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import EdgeNotFoundError, InfeasibleRequestError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, Node
from repro.graph.mst import kruskal_mst, prim_mst
from repro.graph.shortest_paths import INFINITY, ShortestPathTree, dijkstra
from repro.graph.spcache import ShortestPathCache
from repro.graph.tree import prune_leaves


class _VirtualSource:
    """Sentinel node type for ``s'_k`` (unique, never equal to a switch)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "s'"

    def __reduce__(self):
        # The sentinel is compared with ``is`` throughout, so pickling must
        # resolve back to the module-level singleton: results that cross a
        # process boundary (the parallel experiment runner) would otherwise
        # carry a distinct copy that fails every identity check.
        return "VIRTUAL_SOURCE"


#: The virtual source ``s'_k`` shared by every auxiliary graph.
VIRTUAL_SOURCE = _VirtualSource()


def scale_graph(graph: Graph, factor: float) -> Graph:
    """Return a copy of ``graph`` with every weight multiplied by ``factor``."""
    scaled = Graph()
    for node in graph.nodes():
        scaled.add_node(node)
    for u, v, w in graph.edges():
        scaled.add_edge(u, v, w * factor)
    return scaled


class AuxiliaryCSR:
    """``G_k^i`` compiled into CSR form: substrate arrays + one virtual row.

    The substrate block is the request's single epoch-stamped CSR
    compilation (owned by the shortest-path cache — never recompiled per
    combination), with weights read through the uniform ``b_k`` factor.
    The virtual source ``s'_k`` is one extra appended row at index
    ``num_nodes``; across the ``V_S^i`` combination sweep **only this row
    (and the zero overrides on the source's incident edges) varies**, via
    :meth:`set_combination` — everything else is shared by reference.
    """

    __slots__ = (
        "csr",
        "adjacency",
        "factor",
        "source_index",
        "virtual_index",
        "virtual_weight",
        "members",
        "zero",
    )

    def __init__(
        self,
        csr: CSRGraph,
        factor: float,
        source_index: int,
        virtual_weight: Dict[int, float],
    ) -> None:
        self.csr = csr
        #: Shared per-node ``(neighbor index, weight)`` rows (unit weights).
        self.adjacency = csr.adjacency()
        self.factor = factor
        self.source_index = source_index
        #: Index of the appended virtual-source row ``s'_k``.
        self.virtual_index = csr.num_nodes
        #: Scaled virtual-edge weight per *reachable* server index.
        self.virtual_weight = virtual_weight
        #: Current combination (server indices, combination order).
        self.members: Tuple[int, ...] = ()
        #: Current zero-edge servers (members adjacent to the source).
        self.zero: frozenset = frozenset()

    def set_combination(
        self, members: Sequence[int], zero: Iterable[int]
    ) -> None:
        """Select the combination ``V_S^i``: swap only the virtual block."""
        self.members = tuple(members)
        self.zero = frozenset(zero)

    def virtual_row(self) -> Tuple[Tuple[int, float], ...]:
        """The current virtual-source edge block ``((server, weight), ...)``."""
        virtual_weight = self.virtual_weight
        return tuple((v, virtual_weight[v]) for v in self.members)

    def weight(self, u: int, v: int) -> float:
        """Auxiliary-graph weight of edge ``(u, v)`` under the combination.

        Raises:
            EdgeNotFoundError: if ``(u, v)`` is not an auxiliary edge.
        """
        virtual = self.virtual_index
        virtual_weight = self.virtual_weight
        if u == virtual or v == virtual:
            other = v if u == virtual else u
            if other in self.members:
                return virtual_weight[other]
            raise EdgeNotFoundError(u, v)
        source = self.source_index
        zero = self.zero
        if (u == source and v in zero) or (v == source and u in zero):
            return 0.0
        for neighbor, unit in self.adjacency[u]:
            if neighbor == v:
                return unit * self.factor
        raise EdgeNotFoundError(u, v)

    def to_graph(self) -> Graph:
        """Decode the current ``G_k^i`` into a dict :class:`Graph`.

        For tests and debugging only (the solver core never materializes
        the auxiliary graph); the result carries the same node set, edge
        set, and weights as :func:`explicit_auxiliary_graph`.
        """
        nodes = self.csr.nodes
        factor = self.factor
        source = self.source_index
        zero = self.zero
        aux = Graph()
        for node in nodes:
            aux.add_node(node)
        for u, row in enumerate(self.adjacency):
            for v, unit in row:
                if v < u:
                    continue  # each undirected edge appears in both rows
                if (u == source and v in zero) or (
                    v == source and u in zero
                ):
                    aux.add_edge(nodes[u], nodes[v], 0.0)
                else:
                    aux.add_edge(nodes[u], nodes[v], unit * factor)
        aux.add_node(VIRTUAL_SOURCE)
        for v, weight in self.virtual_row():
            aux.add_edge(VIRTUAL_SOURCE, nodes[v], weight)
        return aux


class FlatContext:
    """Integer-id twin of :class:`AuxiliaryContext` (the CSR-native core).

    Built once per request from the shortest-path cache's single
    epoch-stamped CSR compilation.  Every field lives in the compiled
    view's index space, so the combination sweep shares one set of
    substrate arrays, Dijkstra distance/parent rows, and scratch buffers
    across all ``Σ C(|V_S|, j)`` evaluations — the fast evaluator decodes
    back to node objects only for the winning combination.
    """

    __slots__ = (
        "csr",
        "nodes",
        "index",
        "factor",
        "source",
        "destinations",
        "dist_rows",
        "parent_rows",
        "virtual_weight",
        "adjacent",
        "aux",
    )

    def __init__(
        self,
        csr: CSRGraph,
        factor: float,
        source: int,
        destinations: Tuple[int, ...],
        dist_rows: Dict[int, List[float]],
        parent_rows: Dict[int, List[int]],
        virtual_weight: Dict[int, float],
        adjacent: frozenset,
    ) -> None:
        self.csr = csr
        self.nodes = csr.nodes
        self.index = csr.index
        #: The uniform ``b_k`` scaling factor (rows hold unit distances).
        self.factor = factor
        self.source = source
        self.destinations = destinations
        #: Unit-cost distance row per cached origin index.
        self.dist_rows = dist_rows
        #: Predecessor-index row per cached origin index (-1 = none).
        self.parent_rows = parent_rows
        #: Scaled virtual-edge weight per reachable server index.
        self.virtual_weight = virtual_weight
        #: Server indices with a physical edge to the source.
        self.adjacent = adjacent
        #: The CSR-form auxiliary graph sharing these arrays.
        self.aux = AuxiliaryCSR(csr, factor, source, virtual_weight)


def _build_flat_context(
    cache: ShortestPathCache,
    source: Node,
    destinations: Tuple[Node, ...],
    servers: Tuple[Node, ...],
    virtual_weight: Dict[Node, float],
    adjacent: frozenset,
    bandwidth: float,
) -> FlatContext:
    """Project the cached context into the compiled view's index space.

    The distance/parent rows are memoized views over the very trees the
    dict-keyed context serves (see ``ShortestPathCache.flat_tree``), and
    the virtual weights are the *same float objects* — flat and dict
    evaluation can therefore never disagree, bit for bit.
    """
    csr = cache.compiled()
    index = csr.index
    dist_rows: Dict[int, List[float]] = {}
    parent_rows: Dict[int, List[int]] = {}
    for origin in (source,) + destinations + servers:
        origin_idx = index[origin]
        if origin_idx not in dist_rows:
            dist_row, parent_row = cache.flat_tree(origin)
            dist_rows[origin_idx] = dist_row
            parent_rows[origin_idx] = parent_row
    return FlatContext(
        csr=csr,
        factor=bandwidth,
        source=index[source],
        destinations=tuple(index[d] for d in destinations),
        dist_rows=dist_rows,
        parent_rows=parent_rows,
        virtual_weight={index[v]: w for v, w in virtual_weight.items()},
        adjacent=frozenset(index[v] for v in adjacent),
    )


@dataclass
class AuxiliaryContext:
    """Everything shared by all server combinations of one request.

    Attributes:
        scaled: topology with weights ``c_e · b_k``.
        source: the request source ``s_k``.
        destinations: the terminal set ``D_k`` (stable order).
        candidate_servers: servers eligible for the chain, reachable from the
            source.
        chain_cost: ``c_v(SC_k)`` per candidate server.
        virtual_weight: weight of the virtual edge ``(s'_k, v)``.
        adjacent_servers: candidates ``v`` with a physical edge ``(s_k, v)``
            (these trigger the zero-cost rule).
        sp: Dijkstra trees keyed by origin, covering the source, every
            destination, and every candidate server.
        flat: the integer-id projection driving the CSR-native evaluator;
            ``None`` for the uncached reference construction.
    """

    scaled: Graph
    source: Node
    destinations: Tuple[Node, ...]
    candidate_servers: Tuple[Node, ...]
    chain_cost: Dict[Node, float]
    virtual_weight: Dict[Node, float]
    adjacent_servers: frozenset
    sp: Dict[Node, ShortestPathTree] = field(repr=False)
    flat: Optional[FlatContext] = field(default=None, repr=False)

    def distance(self, origin: Node, target: Node) -> float:
        """Unmodified scaled-graph distance from a cached origin."""
        tree = self.sp[origin]
        return tree.distance.get(target, INFINITY)

    def path(self, origin: Node, target: Node) -> List[Node]:
        """Unmodified scaled-graph path ``origin → target``."""
        return self.sp[origin].path_to(target)


def build_context(
    graph: Graph,
    source: Node,
    destinations: Sequence[Node],
    servers: Sequence[Node],
    chain_cost: Dict[Node, float],
    bandwidth: float,
    cache: Optional[ShortestPathCache] = None,
) -> AuxiliaryContext:
    """Precompute the shared state for one request.

    Args:
        graph: topology with per-unit link costs as weights.
        source: ``s_k``.
        destinations: ``D_k``.
        servers: eligible servers (already filtered for compute feasibility
            by capacitated callers).
        chain_cost: ``c_v(SC_k)`` for each eligible server.
        bandwidth: ``b_k``.
        cache: optional shortest-path cache bound to ``graph``.  When given,
            Dijkstra trees come from the cache with distances scaled lazily
            by ``bandwidth`` (uniform scaling preserves shortest paths), and
            no scaled graph copy is materialized.  When ``None``, the
            context is built the reference way: an explicit ``c_e · b_k``
            copy of the topology plus one fresh Dijkstra per origin.

    Raises:
        InfeasibleRequestError: if a destination is unreachable from the
            source, or no server is reachable.
        ValueError: if ``cache`` is bound to a different graph object.
    """
    if cache is not None:
        if cache.graph is not graph:
            raise ValueError(
                "shortest-path cache is bound to a different graph than the "
                "one passed to build_context"
            )
        return _build_context_cached(
            cache, source, destinations, servers, chain_cost, bandwidth
        )
    scaled = scale_graph(graph, bandwidth)
    # This is the *reference* (uncached) construction the differential
    # harness diffs the cached engine against — it must keep running fresh
    # Dijkstras on the materialized scaled copy, by definition.
    # repro-lint: disable=RL001
    sp: Dict[Node, ShortestPathTree] = {source: dijkstra(scaled, source)}
    source_tree = sp[source]

    for destination in destinations:
        if not source_tree.reaches(destination):
            raise InfeasibleRequestError(
                f"destination {destination!r} unreachable from {source!r}"
            )
        sp[destination] = dijkstra(scaled, destination)  # repro-lint: disable=RL001

    reachable_servers = tuple(
        v for v in servers if source_tree.reaches(v)
    )
    if not reachable_servers:
        raise InfeasibleRequestError(
            f"no server reachable from source {source!r}"
        )
    for server in reachable_servers:
        if server not in sp:
            sp[server] = dijkstra(scaled, server)  # repro-lint: disable=RL001

    virtual_weight = {
        v: source_tree.distance[v] + chain_cost[v] for v in reachable_servers
    }
    adjacent = frozenset(
        v for v in reachable_servers if scaled.has_edge(source, v)
    )
    return AuxiliaryContext(
        scaled=scaled,
        source=source,
        destinations=tuple(dict.fromkeys(destinations)),
        candidate_servers=reachable_servers,
        chain_cost=dict(chain_cost),
        virtual_weight=virtual_weight,
        adjacent_servers=adjacent,
        sp=sp,
    )


def _build_context_cached(
    cache: ShortestPathCache,
    source: Node,
    destinations: Sequence[Node],
    servers: Sequence[Node],
    chain_cost: Dict[Node, float],
    bandwidth: float,
) -> AuxiliaryContext:
    """Cache-backed :func:`build_context`: no graph copy, no fresh Dijkstra.

    Uniform scaling by ``b_k`` preserves shortest paths, so every tree is
    the cached unit-cost tree with distances multiplied lazily; the scaled
    topology is a read-only view with the same property.
    """
    scaled = cache.scaled_view(bandwidth)
    sp: Dict[Node, ShortestPathTree] = {
        source: cache.scaled_tree(source, bandwidth)
    }
    source_tree = sp[source]

    for destination in destinations:
        if not source_tree.reaches(destination):
            raise InfeasibleRequestError(
                f"destination {destination!r} unreachable from {source!r}"
            )

    reachable_servers = tuple(
        v for v in servers if source_tree.reaches(v)
    )
    if not reachable_servers:
        raise InfeasibleRequestError(
            f"no server reachable from source {source!r}"
        )

    # Feasibility established: fill every miss in one batched sweep (a
    # dijkstra_many over the cache's compiled view), then wrap the
    # now-cached unit trees.  The trees are the ones the per-origin pulls
    # below would have computed lazily — warming moves work, it never
    # changes a result.
    cache.warm(list(destinations) + list(reachable_servers))
    for destination in destinations:
        sp[destination] = cache.scaled_tree(destination, bandwidth)
    for server in reachable_servers:
        if server not in sp:
            sp[server] = cache.scaled_tree(server, bandwidth)

    virtual_weight = {
        v: source_tree.distance[v] + chain_cost[v] for v in reachable_servers
    }
    adjacent = frozenset(
        v for v in reachable_servers if scaled.has_edge(source, v)
    )
    unique_destinations = tuple(dict.fromkeys(destinations))
    # Project the context into the compiled view's index space once; the
    # whole combination sweep then runs on flat arrays (see
    # fasteval.CSRCombinationEvaluator) and decodes only the winning tree.
    flat = _build_flat_context(
        cache,
        source,
        unique_destinations,
        reachable_servers,
        virtual_weight,
        adjacent,
        bandwidth,
    )
    return AuxiliaryContext(
        scaled=scaled,
        source=source,
        destinations=unique_destinations,
        candidate_servers=reachable_servers,
        chain_cost=dict(chain_cost),
        virtual_weight=virtual_weight,
        adjacent_servers=adjacent,
        sp=sp,
        flat=flat,
    )


# ----------------------------------------------------------------------
# modified (auxiliary) distances between real nodes
# ----------------------------------------------------------------------
#
# With the zero-cost edges Z = {(s_k, v) : v ∈ combination, (s_k, v) ∈ E},
# any shortest auxiliary path between real nodes a, b decomposes as at most
# two unmodified segments joined at s_k through zero edges.  The four cases:
#   d0: a ⇝ b                                   (no zero edge)
#   d1: a ⇝ s_k, (s_k,v)=0, v ⇝ b               (one zero edge, exit side)
#   d2: a ⇝ v, (v,s_k)=0, s_k ⇝ b               (one zero edge, entry side)
#   d3: a ⇝ v1, (v1,s_k)=0, (s_k,v2)=0, v2 ⇝ b  (two zero edges)
# Every candidate corresponds to a real walk in G_k^i, so the minimum over
# cases is the exact auxiliary distance.

_CASE_DIRECT = 0
_CASE_EXIT = 1
_CASE_ENTRY = 2
_CASE_DOUBLE = 3


def _modified_distance(
    ctx: AuxiliaryContext, zero_servers: Sequence[Node], a: Node, b: Node
) -> Tuple[float, int, Optional[Node], Optional[Node]]:
    """Return ``(distance, case, v1, v2)`` for the aux path ``a → b``.

    ``a`` and ``b`` must both be cached Dijkstra origins... ``a`` must be;
    distances *to* ``b`` are read from ``a``'s tree, distances involving the
    zero shortcuts read from both trees, so both ends must be cached.
    """
    dist_a = ctx.sp[a].distance
    dist_b = ctx.sp[b].distance
    best = (dist_a.get(b, INFINITY), _CASE_DIRECT, None, None)
    if zero_servers:
        a_to_source = dist_a.get(ctx.source, INFINITY)
        b_to_source = dist_b.get(ctx.source, INFINITY)
        exit_v = min(zero_servers, key=lambda v: dist_b.get(v, INFINITY))
        entry_v = min(zero_servers, key=lambda v: dist_a.get(v, INFINITY))
        d1 = a_to_source + dist_b.get(exit_v, INFINITY)
        if d1 < best[0]:
            best = (d1, _CASE_EXIT, None, exit_v)
        d2 = dist_a.get(entry_v, INFINITY) + b_to_source
        if d2 < best[0]:
            best = (d2, _CASE_ENTRY, entry_v, None)
        d3 = dist_a.get(entry_v, INFINITY) + dist_b.get(exit_v, INFINITY)
        if d3 < best[0]:
            best = (d3, _CASE_DOUBLE, entry_v, exit_v)
    return best


def _modified_path(
    ctx: AuxiliaryContext,
    a: Node,
    b: Node,
    case: int,
    v1: Optional[Node],
    v2: Optional[Node],
) -> List[Node]:
    """Materialize the node path chosen by :func:`_modified_distance`."""
    if case == _CASE_DIRECT:
        return ctx.sp[a].path_to(b)
    if case == _CASE_EXIT:
        assert v2 is not None
        first = ctx.sp[a].path_to(ctx.source)
        second = list(reversed(ctx.sp[b].path_to(v2)))
        return first + second  # source→v2 hop is the zero edge
    if case == _CASE_ENTRY:
        assert v1 is not None
        first = ctx.sp[a].path_to(v1)
        second = list(reversed(ctx.sp[b].path_to(ctx.source)))
        return first + second  # v1→source hop is the zero edge
    if case == _CASE_DOUBLE:
        assert v1 is not None and v2 is not None
        first = ctx.sp[a].path_to(v1)
        second = list(reversed(ctx.sp[b].path_to(v2)))
        if v1 == v2:  # degenerate: both zero hops collapse
            return first + second[1:]
        return first + [ctx.source] + second
    raise AssertionError(f"unknown case {case}")


@dataclass(frozen=True)
class SubsetSolution:
    """KMB's answer on the auxiliary graph of one server combination.

    Attributes:
        combination: the server combination ``V_S^i``.
        used_servers: servers whose virtual edge the final tree retained.
        cost: auxiliary-graph weight of the pruned tree (the paper's
            ``c(T_k^i)``).
        tree: the pruned Steiner tree, still containing
            :data:`VIRTUAL_SOURCE` and its virtual edges.
    """

    combination: Tuple[Node, ...]
    used_servers: Tuple[Node, ...]
    cost: float
    tree: Graph


def evaluate_combination(
    ctx: AuxiliaryContext, combination: Sequence[Node]
) -> Optional[SubsetSolution]:
    """Run KMB on ``G_k^i`` for one server combination.

    Returns ``None`` when no member of the combination is reachable (the
    auxiliary graph cannot connect ``s'_k`` to the destinations).
    """
    members = [v for v in combination if v in ctx.virtual_weight]
    if not members:
        return None
    zero_servers = [v for v in members if v in ctx.adjacent_servers]
    terminals: List[Node] = [VIRTUAL_SOURCE] + list(ctx.destinations)

    # --- metric closure over {s'} ∪ D_k -------------------------------
    closure = Graph()
    for terminal in terminals:
        closure.add_node(terminal)
    pair_choice: Dict[Tuple[Node, Node], Tuple] = {}

    destinations = ctx.destinations
    for i, x in enumerate(destinations):
        for y in destinations[i + 1 :]:
            dist, case, v1, v2 = _modified_distance(ctx, zero_servers, x, y)
            if dist == INFINITY:
                return None  # disconnected (capacitated pruning can cause this)
            closure.add_edge(x, y, dist)
            pair_choice[(x, y)] = ("real", case, v1, v2)

    for y in destinations:
        best = (INFINITY, None, _CASE_DIRECT, None, None)
        for v in members:
            dist, case, v1, v2 = _modified_distance(ctx, zero_servers, v, y)
            total = ctx.virtual_weight[v] + dist
            if total < best[0]:
                best = (total, v, case, v1, v2)
        if best[1] is None or best[0] == INFINITY:
            return None
        closure.add_edge(VIRTUAL_SOURCE, y, best[0])
        pair_choice[(VIRTUAL_SOURCE, y)] = ("virtual", best[1], best[2], best[3], best[4])

    closure_mst = prim_mst(closure)

    # --- expansion into the auxiliary graph ---------------------------
    expanded = Graph()

    def aux_weight(u: Node, v: Node) -> float:
        if (u == ctx.source and v in zero_servers) or (
            v == ctx.source and u in zero_servers
        ):
            return 0.0
        return ctx.scaled.weight(u, v)

    def add_real_path(path: List[Node]) -> None:
        for u, v in zip(path, path[1:]):
            expanded.add_edge(u, v, aux_weight(u, v))

    for u, v, _ in closure_mst.edges():
        a, b = (u, v) if (u, v) in pair_choice else (v, u)
        choice = pair_choice[(a, b)]
        if choice[0] == "real":
            _, case, v1, v2 = choice
            add_real_path(_modified_path(ctx, a, b, case, v1, v2))
        else:
            _, server, case, v1, v2 = choice
            expanded.add_edge(
                VIRTUAL_SOURCE, server, ctx.virtual_weight[server]
            )
            add_real_path(_modified_path(ctx, server, b, case, v1, v2))

    # --- second MST + pruning (KMB steps 4-5) --------------------------
    refined = kruskal_mst(expanded)
    pruned = prune_leaves(refined, keep=terminals)

    used = tuple(
        sorted(
            (v for v in pruned.neighbors(VIRTUAL_SOURCE)),
            key=repr,
        )
    ) if pruned.has_node(VIRTUAL_SOURCE) else ()
    if not used:
        return None  # degenerate: tree failed to retain the virtual source
    return SubsetSolution(
        combination=tuple(members),
        used_servers=used,
        cost=pruned.total_weight(),
        tree=pruned,
    )


def explicit_auxiliary_graph(
    ctx: AuxiliaryContext, combination: Sequence[Node]
) -> Graph:
    """Materialize ``G_k^i`` as an ordinary :class:`Graph`.

    Used by the exact solver and by tests that cross-check the fast
    analytic evaluator against textbook KMB on the real auxiliary graph.
    """
    members = [v for v in combination if v in ctx.virtual_weight]
    aux = ctx.scaled.copy()
    aux.add_node(VIRTUAL_SOURCE)
    for v in members:
        aux.add_edge(VIRTUAL_SOURCE, v, ctx.virtual_weight[v])
        if v in ctx.adjacent_servers:
            aux.set_weight(ctx.source, v, 0.0)
    return aux


def iter_combinations(
    servers: Sequence[Node], max_servers: int
) -> Iterable[Tuple[Node, ...]]:
    """Yield every non-empty server combination of size ≤ ``max_servers``.

    Mirrors the paper's enumeration (its worked example counts all subsets
    of size 1 … K).
    """
    ordered = list(servers)
    limit = min(max_servers, len(ordered))
    for size in range(1, limit + 1):
        yield from itertools.combinations(ordered, size)
