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
prices every link once per network epoch and compiles each request's
solver graph ``G_k`` straight from those prices.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

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
        """Return the normalized weight ``w_e(k)`` of link ``(u, v)``."""

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
    """Per-epoch link prices of one network under one cost model.

    The flat twin of :meth:`CostModel.weight_graph`.  Links are numbered in
    ``network.graph.edges()`` order and nodes in topology order, both
    fixed for the network's lifetime.  Every link is priced with
    :meth:`CostModel.edge_weight` once per network epoch (any allocation,
    release or failure bumps the epoch), and :meth:`priced_csr` compiles a
    request's solver graph from those prices alone.

    Attributes:
        nodes: the topology's nodes; ``nodes[i]`` has index ``i``.
        index: the inverse map ``node -> int``.
        link_at: ``link_at[i][j]`` is the number of the link between nodes
            ``i`` and ``j``.
        price: ``price[l]`` is link ``l``'s normalized weight ``w_e(k)`` as
            of the last :meth:`priced_csr` call (no tie-break added).
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
        "_kept",
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
        self._ends: List[Tuple[Node, Node, int, int]] = []
        self._links: List[LinkState] = []
        self._tie_breaks: List[float] = []
        for link_id, (u, v, unit_cost) in enumerate(graph.edges()):
            i, j = self.index[u], self.index[v]
            self.link_at[i][j] = link_id
            self.link_at[j][i] = link_id
            self._ends.append((u, v, i, j))
            self._links.append(network.link(u, v))
            self._tie_breaks.append(TIE_BREAK_SCALE * unit_cost)
        self._epoch: Optional[int] = None
        self.price: List[float] = []
        #: ``(i, j, solver weight, residual + 1e-9, u, v)`` per up link.
        self._kept: List[Tuple[int, int, float, float, Node, Node]] = []

    def _refresh(self) -> None:
        """Re-price every link unless the network epoch is unchanged."""
        network = self._network
        if network.epoch == self._epoch:
            return
        edge_weight = self._model.edge_weight
        self.price = [edge_weight(network, u, v) for u, v, _, _ in self._ends]
        self._kept = [
            (i, j, price + tie_break, link.residual + 1e-9, u, v)
            for (u, v, i, j), link, price, tie_break in zip(
                self._ends, self._links, self.price, self._tie_breaks
            )
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
        rows: List[List[Tuple[int, float]]] = [[] for _ in self.nodes]
        for i, j, weight, headroom, u, v in self._kept:
            if headroom < min_residual_bandwidth:
                continue
            if not 0.0 <= weight < INFINITY:  # also rejects NaN
                raise InvalidWeightError(u, v, weight)
            rows[i].append((j, weight))
            rows[j].append((i, weight))
        return CSRGraph.from_adjacency(
            self.nodes,
            self.index,
            [tuple(row) for row in rows],
            epoch=self._epoch,
        )
