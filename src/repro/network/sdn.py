"""The software-defined network model ``G = (V, E)`` with servers ``V_S``.

:class:`SDNetwork` wraps a topology graph with the capacity and cost state
the paper's algorithms read and write: per-link bandwidth (``B_e``, residual
``B_e(k)``, unit cost ``c_e``) and per-server compute (``C_v``, residual
``C_v(k)``, unit cost ``c_v``).  The topology graph's edge weights equal the
link unit costs, so ``weight(u, v) · b_k`` is the paper's cost of carrying
request ``r_k`` over edge ``(u, v)``.

The class also provides the two derived views the solvers need:

- :meth:`residual_graph` — the subgraph of links that can still carry a
  given bandwidth (used by ``Appro_Multi_Cap``, Section IV-C);
- :meth:`feasible_servers` — the servers that can still host a given chain.

plus snapshot/restore for what-if exploration in the benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    NetworkModelError,
    NodeNotFoundError,
)
from repro.graph.graph import Graph, Node, edge_key
from repro.graph.spcache import ShortestPathCache, VersionedCacheRegistry
from repro.network.elements import LinkState, ServerState

#: Paper defaults (Section VI-A).
DEFAULT_BANDWIDTH_RANGE = (1_000.0, 10_000.0)  # Mbps, from [11]
DEFAULT_COMPUTE_RANGE = (4_000.0, 12_000.0)  # MHz, from [8]
DEFAULT_SERVER_FRACTION = 0.10  # |V_S| = 10% of |V|
#: Per-MHz server usage cost band; chosen so that one service chain costs
#: about as much as carrying the request across a couple of links, which is
#: the compute/bandwidth tradeoff regime the paper's Fig. 5 discussion
#: describes.
DEFAULT_SERVER_UNIT_COST_RANGE = (0.005, 0.02)
#: Link unit costs are the topology edge weights scaled by this factor to
#: express cost per Mbps.
DEFAULT_LINK_COST_SCALE = 0.01


@dataclass(frozen=True)
class NetworkSnapshot:
    """An immutable copy of all residual resources at one instant."""

    link_residuals: Dict[Tuple[Node, Node], float]
    server_residuals: Dict[Node, float]


class SDNetwork:
    """A capacitated SDN: topology + servers + residual resource state."""

    def __init__(
        self,
        graph: Graph,
        links: Dict[Tuple[Node, Node], LinkState],
        servers: Dict[Node, ServerState],
    ) -> None:
        for key in links:
            if not graph.has_edge(*key):
                raise NetworkModelError(f"link state for missing edge {key!r}")
        for node in servers:
            if not graph.has_node(node):
                raise NetworkModelError(f"server on missing node {node!r}")
        missing = [
            edge_key(u, v)
            for u, v, _ in graph.edges()
            if edge_key(u, v) not in links
        ]
        if missing:
            raise NetworkModelError(f"edges without link state: {missing[:3]!r}…")
        self._graph = graph
        self._links = links
        self._servers = servers
        # Residual-state version counter: bumped by every allocation,
        # release, restore, and reset, so caches over *derived* graphs
        # (residual subgraphs, congestion-priced graphs) can be keyed on it
        # and never read stale shortest paths.
        self._epoch = 0
        self._path_caches = VersionedCacheRegistry()
        self._topology_cache: Optional[ShortestPathCache] = None

    # ------------------------------------------------------------------
    # topology access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The topology; edge weights are link unit costs ``c_e``."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """``|V|``."""
        return self._graph.num_nodes

    @property
    def server_nodes(self) -> List[Node]:
        """``V_S``: the switches with attached servers, in a stable order."""
        return sorted(self._servers, key=repr)

    def is_server(self, node: Node) -> bool:
        """Return whether ``node`` has an attached server."""
        return node in self._servers

    def link(self, u: Node, v: Node) -> LinkState:
        """Return the state of link ``(u, v)``."""
        try:
            return self._links[edge_key(u, v)]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def server(self, node: Node) -> ServerState:
        """Return the state of the server at ``node``."""
        try:
            return self._servers[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def links(self) -> Iterable[LinkState]:
        """Iterate over all link states."""
        return self._links.values()

    def servers(self) -> Iterable[ServerState]:
        """Iterate over all server states."""
        return self._servers.values()

    # ------------------------------------------------------------------
    # cost parameters (Case 1 of the problem definition)
    # ------------------------------------------------------------------
    def link_unit_cost(self, u: Node, v: Node) -> float:
        """``c_e``: cost of one Mbps on link ``(u, v)``."""
        return self.link(u, v).unit_cost

    def link_delay(self, u: Node, v: Node) -> float:
        """Propagation delay of link ``(u, v)`` in milliseconds."""
        return self.link(u, v).delay

    def delay_map(self) -> Dict[Tuple[Node, Node], float]:
        """All link delays keyed by canonical edge, for the path solvers."""
        return {key: state.delay for key, state in self._links.items()}

    def path_delay(self, path: Sequence[Node]) -> float:
        """Total propagation delay along a node path."""
        return sum(
            self.link(u, v).delay for u, v in zip(path, path[1:])
        )

    def server_unit_cost(self, node: Node) -> float:
        """``c_v``: cost of one MHz on the server at ``node``."""
        return self.server(node).unit_cost

    def chain_cost(self, node: Node, compute_demand: float) -> float:
        """``c_v(SC_k)``: cost of placing a chain needing ``compute_demand``."""
        return self.server(node).unit_cost * compute_demand

    # ------------------------------------------------------------------
    # derived views for the capacitated solvers
    # ------------------------------------------------------------------
    def residual_graph(self, min_bandwidth: float = 0.0) -> Graph:
        """Return the subgraph of links with residual ≥ ``min_bandwidth``.

        Failed links are excluded regardless of their residual.  Node set is
        preserved in full (isolated switches remain), matching the
        construction of ``G'`` in Section IV-C.
        """
        pruned = Graph()
        for node in self._graph.nodes():
            pruned.add_node(node)
        for u, v, weight in self._graph.edges():
            link = self._links[edge_key(u, v)]
            if link.up and link.residual >= min_bandwidth - 1e-9:
                pruned.add_edge(u, v, weight)
        return pruned

    def feasible_servers(self, compute_demand: float) -> List[Node]:
        """Return ``V'_S``: servers whose residual compute fits the demand."""
        return [
            node
            for node in self.server_nodes
            if self._servers[node].can_allocate(compute_demand)
        ]

    # ------------------------------------------------------------------
    # shortest-path caches
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Residual-state version: increments on every resource mutation.

        Two reads of any residual-derived view (``residual_graph``, a cost
        model's weighted graph) at the same epoch are guaranteed identical;
        caches over such views must be keyed on this counter.
        """
        return self._epoch

    def path_cache(self) -> ShortestPathCache:
        """Shared Dijkstra-tree cache over the (immutable) topology.

        The topology graph and its unit costs never change after
        construction, so these trees stay valid across requests, epochs,
        and bandwidths — distances for a request are obtained by scaling
        lazily with ``b_k`` (see :mod:`repro.graph.spcache`).

        The cache compiles the topology into a
        :class:`~repro.graph.csr.CSRGraph` on the first miss and
        reuses that compiled view for every subsequent fill — one compile
        for the lifetime of the network, since this graph never changes.
        """
        if self._topology_cache is None:
            self._topology_cache = ShortestPathCache(self._graph)
        return self._topology_cache

    def residual_path_cache(self, min_bandwidth: float) -> ShortestPathCache:
        """Dijkstra-tree cache over ``residual_graph(min_bandwidth)``.

        Keyed on the current epoch: any allocation or release invalidates
        it, so ``Appro_Multi_Cap`` always sees fresh paths on the pruned
        graph.  The cache's bound graph is the residual subgraph itself
        (``cache.graph``), built at most once per (epoch, bandwidth).
        """
        return self._path_caches.get(
            ("residual", min_bandwidth),
            self._epoch,
            lambda: self.residual_graph(min_bandwidth),
        )

    def unit_path_cache(self, min_bandwidth: float) -> ShortestPathCache:
        """Dijkstra-tree cache over the *hop-count* residual subgraph.

        The ``SP`` baseline routes on ``residual_graph(min_bandwidth)``
        with every surviving link reweighted to 1 (fewest hops, load
        oblivious).  Like :meth:`residual_path_cache` this is keyed on the
        current epoch, so consecutive requests that do not mutate resources
        (rejections) share the same trees and a mutation can never leak a
        stale hop-count path.

        Each cache instance compiles its bound residual subgraph to CSR at
        most once (on the first fill), and the epoch keying above retires
        that compiled view
        together with the cache the moment resources mutate — the compile
        is per (epoch, bandwidth), exactly like the subgraph itself.
        """
        return self._path_caches.get(
            ("unit", min_bandwidth),
            self._epoch,
            lambda: self._unit_residual_graph(min_bandwidth),
        )

    def _unit_residual_graph(self, min_bandwidth: float) -> Graph:
        """Materialize ``residual_graph(min_bandwidth)`` with weight-1 links.

        Node and edge insertion order mirror the residual graph exactly so
        Dijkstra tie-breaking — and therefore every figure series — is
        bit-identical to building the graph at the call site.
        """
        residual = self.residual_graph(min_bandwidth)
        unit = Graph()
        for node in residual.nodes():
            unit.add_node(node)
        for u, v, _ in residual.edges():
            unit.add_edge(u, v, 1.0)
        return unit

    # ------------------------------------------------------------------
    # resource mutation
    # ------------------------------------------------------------------
    def allocate_bandwidth(self, u: Node, v: Node, amount: float) -> None:
        """Reserve ``amount`` Mbps on link ``(u, v)``."""
        self.link(u, v).allocate(amount)
        self._epoch += 1

    def release_bandwidth(self, u: Node, v: Node, amount: float) -> None:
        """Return ``amount`` Mbps to link ``(u, v)``."""
        self.link(u, v).release(amount)
        self._epoch += 1

    def allocate_compute(self, node: Node, amount: float) -> None:
        """Reserve ``amount`` MHz on the server at ``node``."""
        self.server(node).allocate(amount)
        self._epoch += 1

    def release_compute(self, node: Node, amount: float) -> None:
        """Return ``amount`` MHz to the server at ``node``."""
        self.server(node).release(amount)
        self._epoch += 1

    # ------------------------------------------------------------------
    # failure injection (repro.resilience)
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> bool:
        """Mark link ``(u, v)`` as failed.

        A failed link is excluded from :meth:`residual_graph` (and every
        epoch-keyed cache over it) and refuses new allocations; resources
        already reserved on it remain booked until released.  Returns
        whether the state changed (``False`` if the link was already down),
        bumping the epoch only on a real transition so repeated events do
        not invalidate caches for nothing.
        """
        link = self.link(u, v)
        if not link.up:
            return False
        link.up = False
        self._epoch += 1
        return True

    def recover_link(self, u: Node, v: Node) -> bool:
        """Bring link ``(u, v)`` back up; returns whether the state changed."""
        link = self.link(u, v)
        if link.up:
            return False
        link.up = True
        self._epoch += 1
        return True

    def fail_server(self, node: Node) -> bool:
        """Mark the server at ``node`` as failed (its switch keeps routing).

        Returns whether the state changed (``False`` if already down).
        """
        server = self.server(node)
        if not server.up:
            return False
        server.up = False
        self._epoch += 1
        return True

    def recover_server(self, node: Node) -> bool:
        """Bring the server at ``node`` back up; returns whether it changed."""
        server = self.server(node)
        if server.up:
            return False
        server.up = True
        self._epoch += 1
        return True

    def link_is_up(self, u: Node, v: Node) -> bool:
        """Return whether link ``(u, v)`` is operational."""
        return self.link(u, v).up

    def server_is_up(self, node: Node) -> bool:
        """Return whether the server at ``node`` is operational."""
        return self.server(node).up

    def failed_links(self) -> List[Tuple[Node, Node]]:
        """Canonical keys of all currently failed links, in a stable order."""
        return sorted(
            (key for key, link in self._links.items() if not link.up),
            key=repr,
        )

    def failed_servers(self) -> List[Node]:
        """Nodes of all currently failed servers, in a stable order."""
        return sorted(
            (node for node, server in self._servers.items() if not server.up),
            key=repr,
        )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> NetworkSnapshot:
        """Capture every residual so the state can be restored later."""
        return NetworkSnapshot(
            link_residuals={k: s.residual for k, s in self._links.items()},
            server_residuals={n: s.residual for n, s in self._servers.items()},
        )

    def restore(self, snapshot: NetworkSnapshot) -> None:
        """Reset all residuals to a previously captured snapshot."""
        if set(snapshot.link_residuals) != set(self._links) or set(
            snapshot.server_residuals
        ) != set(self._servers):
            raise NetworkModelError("snapshot does not match this network")
        for key, residual in snapshot.link_residuals.items():
            self._links[key].residual = residual
        for node, residual in snapshot.server_residuals.items():
            self._servers[node].residual = residual
        self._epoch += 1

    def reset(self) -> None:
        """Return every resource to full capacity and clear all failures."""
        for link in self._links.values():
            link.residual = link.capacity
            link.up = True
        for server in self._servers.values():
            server.residual = server.capacity
            server.up = True
        self._epoch += 1

    # ------------------------------------------------------------------
    # aggregate statistics (used by metrics and figures)
    # ------------------------------------------------------------------
    def total_bandwidth_allocated(self) -> float:
        """Sum of allocated bandwidth over all links (Mbps)."""
        return sum(link.capacity - link.residual for link in self._links.values())

    def total_compute_allocated(self) -> float:
        """Sum of allocated compute over all servers (MHz)."""
        return sum(
            server.capacity - server.residual
            for server in self._servers.values()
        )

    def mean_link_utilization(self) -> float:
        """Average link utilization in ``[0, 1]`` (0 for an edgeless net)."""
        if not self._links:
            return 0.0
        return sum(link.utilization for link in self._links.values()) / len(
            self._links
        )

    def mean_server_utilization(self) -> float:
        """Average server utilization in ``[0, 1]`` (0 with no servers)."""
        if not self._servers:
            return 0.0
        return sum(s.utilization for s in self._servers.values()) / len(
            self._servers
        )

    def __repr__(self) -> str:
        return (
            f"SDNetwork(nodes={self.num_nodes}, "
            f"links={len(self._links)}, servers={len(self._servers)})"
        )


def build_sdn(
    graph: Graph,
    server_nodes: Optional[Iterable[Node]] = None,
    seed: int = 0,
    bandwidth_range: Tuple[float, float] = DEFAULT_BANDWIDTH_RANGE,
    compute_range: Tuple[float, float] = DEFAULT_COMPUTE_RANGE,
    server_fraction: float = DEFAULT_SERVER_FRACTION,
    server_unit_cost_range: Tuple[float, float] = DEFAULT_SERVER_UNIT_COST_RANGE,
    link_cost_scale: float = DEFAULT_LINK_COST_SCALE,
) -> SDNetwork:
    """Annotate a topology with the paper's capacity/cost parameters.

    Args:
        graph: the topology; its edge weights become link unit costs after
            scaling by ``link_cost_scale``.
        server_nodes: explicit ``V_S``; if ``None``, ``server_fraction`` of
            the switches are chosen uniformly at random (paper default 10 %).
        seed: RNG seed controlling capacities, costs and server placement.
        bandwidth_range: link capacity band in Mbps (paper: 1 000–10 000).
        compute_range: server capacity band in MHz (paper: 4 000–12 000).
        server_fraction: fraction of switches given servers when
            ``server_nodes`` is ``None``.
        server_unit_cost_range: per-MHz cost band for servers.
        link_cost_scale: multiplier mapping topology weights to per-Mbps costs.

    Returns:
        A freshly provisioned :class:`SDNetwork` at full residual capacity.
    """
    if graph.num_nodes == 0:
        raise NetworkModelError("cannot build an SDN over an empty graph")
    rng = random.Random(seed)

    nodes_sorted = sorted(graph.nodes(), key=repr)
    if server_nodes is None:
        count = max(1, round(server_fraction * graph.num_nodes))
        chosen = rng.sample(nodes_sorted, min(count, len(nodes_sorted)))
    else:
        chosen = list(server_nodes)
        for node in chosen:
            if not graph.has_node(node):
                raise NodeNotFoundError(node)
        if not chosen:
            raise NetworkModelError("server_nodes must not be empty")

    cost_graph = Graph()
    for node in graph.nodes():
        cost_graph.add_node(node)
    links: Dict[Tuple[Node, Node], LinkState] = {}
    for u, v, weight in sorted(graph.edges(), key=lambda e: repr(edge_key(e[0], e[1]))):
        unit_cost = weight * link_cost_scale
        cost_graph.add_edge(u, v, unit_cost)
        links[edge_key(u, v)] = LinkState(
            endpoints=edge_key(u, v),
            capacity=rng.uniform(*bandwidth_range),
            unit_cost=unit_cost,
            # topology weights live in a [1, 10] distance band; read them as
            # propagation milliseconds for the delay-aware extension
            delay=weight,
        )

    servers = {
        node: ServerState(
            node=node,
            capacity=rng.uniform(*compute_range),
            unit_cost=rng.uniform(*server_unit_cost_range),
        )
        for node in chosen
    }
    return SDNetwork(graph=cost_graph, links=links, servers=servers)
