"""Resource cost models for online admission (Section V-A).

The paper's key online ingredient is an *exponential* cost that charges
lightly-loaded resources almost nothing and saturating resources steeply:

.. math::

    c_v(k) = C_v (α^{1 - C_v(k)/C_v} - 1), \\qquad
    c_e(k) = B_e (β^{1 - B_e(k)/B_e} - 1)

with ``α = β = 2|V|``.  The *normalized weights* used inside Algorithm 2 are
``w_v(k) = c_v(k)/C_v`` and ``w_e(k) = c_e(k)/B_e``.  A *linear* model (the
strawman the paper argues against) is provided for ablation benchmarks.

:class:`LinkPrices` is the flat twin of :meth:`CostModel.weight_graph`: it
re-prices a link only when the link's state changes and compiles each
request's solver graph ``G_k`` straight from those prices.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import InvalidWeightError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph, Node
from repro.graph.shortest_paths import INFINITY
from repro.network.elements import LinkState
from repro.network.sdn import SDNetwork

#: Tiny per-unit-cost tie-break added to solver edge weights so that a
#: completely idle network (where every exponential weight is exactly zero)
#: still prefers short, cheap paths instead of arbitrary zero-weight trees.
#: It is orders of magnitude below any real congestion signal and is *not*
#: included in threshold comparisons, so it cannot change admission
#: decisions relative to the paper's policy.
TIE_BREAK_SCALE = 1e-9


class CostModel(abc.ABC):
    """Maps the current residual state of a network to edge/node weights."""

    @abc.abstractmethod
    def edge_weight(self, network: SDNetwork, u: Node, v: Node) -> float:
        """Return the normalized weight ``w_e(k)`` of link ``(u, v)``.

        The weight must depend only on that link's own state (its
        ``residual`` and ``up``, plus its fixed capacity and unit cost)
        and on the fixed topology: :class:`LinkPrices` re-prices a link
        only when its own state changed.
        """

    @abc.abstractmethod
    def node_weight(self, network: SDNetwork, node: Node) -> float:
        """Return the normalized weight ``w_v(k)`` of the server at ``node``."""

    def edge_cost(self, network: SDNetwork, u: Node, v: Node) -> float:
        """Return the un-normalized cost ``c_e(k)`` of link ``(u, v)``."""
        return self.edge_weight(network, u, v) * network.link(u, v).capacity

    def node_cost(self, network: SDNetwork, node: Node) -> float:
        """Return the un-normalized cost ``c_v(k)`` of the server at ``node``."""
        return self.node_weight(network, node) * network.server(node).capacity

    def weight_graph(
        self, network: SDNetwork, min_residual_bandwidth: float = 0.0
    ) -> Graph:
        """Build the solver graph ``G_k`` with congestion-aware weights.

        Links whose residual bandwidth is below ``min_residual_bandwidth``
        are omitted (they cannot carry the request anyway), as are failed
        links (see :meth:`~repro.network.sdn.SDNetwork.fail_link`).  A
        microscopic distance-proportional tie-break is added so Steiner
        trees are deterministic and short on an idle network; see
        :data:`TIE_BREAK_SCALE`.
        """
        weighted = Graph()
        for node in network.graph.nodes():
            weighted.add_node(node)
        for u, v, unit_cost in network.graph.edges():
            link = network.link(u, v)
            if not link.up or link.residual + 1e-9 < min_residual_bandwidth:
                continue
            weight = self.edge_weight(network, u, v)
            weighted.add_edge(u, v, weight + TIE_BREAK_SCALE * unit_cost)
        return weighted


class ExponentialCostModel(CostModel):
    """The paper's congestion-pricing model (Eqs. 1 and 2).

    Args:
        alpha: base for server costs; defaults to ``2|V|`` at first use.
        beta: base for link costs; defaults to ``2|V|`` at first use.
    """

    def __init__(
        self, alpha: Optional[float] = None, beta: Optional[float] = None
    ) -> None:
        if alpha is not None and alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {alpha}")
        if beta is not None and beta <= 1:
            raise ValueError(f"beta must be > 1, got {beta}")
        self._alpha = alpha
        self._beta = beta

    @classmethod
    def for_network(cls, network: SDNetwork) -> "ExponentialCostModel":
        """Return the paper's calibration ``α = β = 2|V|``."""
        base = max(2.0, 2.0 * network.num_nodes)
        return cls(alpha=base, beta=base)

    def alpha(self, network: SDNetwork) -> float:
        """The server-cost base (``2|V|`` when not overridden)."""
        return self._alpha if self._alpha is not None else max(
            2.0, 2.0 * network.num_nodes
        )

    def beta(self, network: SDNetwork) -> float:
        """The link-cost base (``2|V|`` when not overridden)."""
        return self._beta if self._beta is not None else max(
            2.0, 2.0 * network.num_nodes
        )

    def edge_weight(self, network: SDNetwork, u: Node, v: Node) -> float:
        link = network.link(u, v)
        return self.beta(network) ** link.utilization - 1.0

    def node_weight(self, network: SDNetwork, node: Node) -> float:
        server = network.server(node)
        return self.alpha(network) ** server.utilization - 1.0


class LinearCostModel(CostModel):
    """The strawman linear model (Section V-A's ``linear cost model``).

    Charges proportionally to the amount of resource used with no regard to
    the current load: the weight of a link or server is simply its unit
    cost, scaled so weights are comparable to the exponential model's range.
    Used to ablate the benefit of congestion pricing.
    """

    def edge_weight(self, network: SDNetwork, u: Node, v: Node) -> float:
        return network.link(u, v).unit_cost

    def node_weight(self, network: SDNetwork, node: Node) -> float:
        return network.server(node).unit_cost


class UtilizationCostModel(CostModel):
    """Linear-in-utilization pricing: ``w = utilization``.

    A second ablation point between the strawman and the exponential model:
    congestion-aware, but without the exponential's sharp knee.
    """

    def edge_weight(self, network: SDNetwork, u: Node, v: Node) -> float:
        return network.link(u, v).utilization

    def node_weight(self, network: SDNetwork, node: Node) -> float:
        return network.server(node).utilization


class LinkPrices:
    """Link prices of one network under one cost model, kept current.

    The flat twin of :meth:`CostModel.weight_graph`.  Links are numbered in
    ``network.graph.edges()`` order and nodes in topology order, both
    fixed for the network's lifetime.  When the network epoch has moved,
    a link is re-priced with :meth:`CostModel.edge_weight` only if its
    ``residual`` or ``up`` attribute no longer holds the object it held at
    its last pricing: a link's weight depends on its own state alone, so
    an allocation re-prices only its own tree's links.  The test is
    identity, not float equality — an attribute that is never reassigned
    keeps its object, and an equal value that is reassigned costs one
    extra re-price.  :meth:`priced_csr` compiles a request's solver graph
    from those prices alone.

    Attributes:
        nodes: the topology's nodes; ``nodes[i]`` has index ``i``.
        index: the inverse map ``node -> int``.
        link_at: ``link_at[i][j]`` is the number of the link between nodes
            ``i`` and ``j``.
        price: ``price[l]`` is link ``l``'s normalized weight ``w_e(k)`` as
            of the last :meth:`priced_csr` call (no tie-break added).
        bound_slack: twice the sum of every link's tie-break.  A tree's
            price sum plus its detour's holds no more tie-break than this,
            so a lower bound read from solver distances, less this slack,
            bounds those price sums too.
    """

    __slots__ = (
        "_model",
        "_network",
        "nodes",
        "index",
        "link_at",
        "_ends",
        "_links",
        "_tie_breaks",
        "_epoch",
        "price",
        "bound_slack",
        "_seen",
        "_entries",
        "_kept",
        "_invalid",
    )

    def __init__(self, model: CostModel, network: SDNetwork) -> None:
        self._model = model
        self._network = network
        graph = network.graph
        self.nodes: List[Node] = list(graph.nodes())
        self.index: Dict[Node, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.link_at: List[Dict[int, int]] = [{} for _ in self.nodes]
        self._ends: List[Tuple[Node, Node]] = []
        self._links: List[LinkState] = []
        self._tie_breaks: List[float] = []
        #: ``[i, j, (j, weight), (i, weight), residual + 1e-9]`` per link:
        #: its prebuilt row entries and headroom, updated in place.
        self._entries: List[List[Any]] = []
        for link_id, (u, v, unit_cost) in enumerate(graph.edges()):
            i, j = self.index[u], self.index[v]
            self.link_at[i][j] = link_id
            self.link_at[j][i] = link_id
            self._ends.append((u, v))
            self._links.append(network.link(u, v))
            self._tie_breaks.append(TIE_BREAK_SCALE * unit_cost)
            self._entries.append([i, j, None, None, None])
        self.bound_slack = 2.0 * sum(self._tie_breaks)
        self._epoch: Optional[int] = None
        self.price: List[float] = [0.0] * len(self._links)
        #: The ``(residual, up)`` objects each link was last priced at.
        self._seen: List[Tuple[Any, Any]] = [(None, None)] * len(self._links)
        #: The up links' entries, in link order.
        self._kept: List[List[Any]] = []
        #: Links whose solver weight is negative, NaN or infinite.
        self._invalid: Set[int] = set()

    def _refresh(self) -> None:
        """Re-price the links that changed, unless the epoch is unchanged."""
        network = self._network
        if network.epoch == self._epoch:
            return
        # Looked up per refresh, so a rebound ``edge_weight`` sees the calls.
        edge_weight = self._model.edge_weight
        seen = self._seen
        up_changed = False
        for link_id, link in enumerate(self._links):
            residual, up = link.residual, link.up
            last_residual, last_up = seen[link_id]
            if residual is last_residual and up is last_up:
                continue
            seen[link_id] = (residual, up)
            up_changed = up_changed or up is not last_up
            u, v = self._ends[link_id]
            price = self.price[link_id] = edge_weight(network, u, v)
            weight = price + self._tie_breaks[link_id]
            if 0.0 <= weight < INFINITY:  # also rejects NaN
                self._invalid.discard(link_id)
            else:
                self._invalid.add(link_id)
            entry = self._entries[link_id]
            entry[2] = (entry[1], weight)
            entry[3] = (entry[0], weight)
            entry[4] = residual + 1e-9
        if up_changed:
            self._kept = [
                entry
                for entry, link in zip(self._entries, self._links)
                if link.up
            ]
        self._epoch = network.epoch

    def priced_csr(self, min_residual_bandwidth: float = 0.0) -> CSRGraph:
        """The solver graph of :meth:`CostModel.weight_graph`, compiled.

        Same links (up, with ``residual + 1e-9 >= min_residual_bandwidth``),
        same weights (price plus tie-break) and the same node and neighbor
        order as the ``Graph`` that method builds, so a search on this
        view equals one on ``compile_csr(weight_graph(...))``.

        Raises:
            InvalidWeightError: if a kept weight is negative, NaN or
                infinite.
        """
        self._refresh()
        for link_id in sorted(self._invalid):
            _, _, (_, weight), _, headroom = self._entries[link_id]
            kept = not headroom < min_residual_bandwidth
            if kept and self._links[link_id].up:
                raise InvalidWeightError(*self._ends[link_id], weight)
        rows: List[List[Tuple[int, float]]] = [[] for _ in self.nodes]
        for i, j, forward, backward, headroom in self._kept:
            if headroom < min_residual_bandwidth:
                continue
            rows[i].append(forward)
            rows[j].append(backward)
        return CSRGraph(
            self.nodes, self.index, list(map(tuple, rows)), epoch=self._epoch
        )
