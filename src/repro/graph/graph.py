"""A minimal, fast undirected weighted graph used by every substrate.

The library deliberately implements its own graph type instead of depending on
networkx: the algorithms in the paper (Dijkstra, MST, KMB Steiner trees) are
hot loops inside simulations that admit thousands of requests, and a plain
``dict``-of-``dict`` adjacency structure with no per-edge attribute dictionaries
is both faster and easier to reason about.  networkx is used only in the test
suite as an independent oracle.

Nodes may be any hashable object.  Edges are undirected, carry a single
``float`` weight, and parallel edges are not supported (adding an existing edge
overwrites its weight).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidWeightError,
    NodeNotFoundError,
)

Node = Hashable
Edge = Tuple[Node, Node]

_INF = float("inf")


def edge_key(u: Node, v: Node) -> Edge:
    """Return a canonical (order-independent) key for the undirected edge.

    The two endpoints are ordered by ``repr`` so that ``edge_key(u, v)`` and
    ``edge_key(v, u)`` always coincide even for mixed node types.
    """
    if u == v:
        return (u, v)
    try:
        return (u, v) if u < v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """An undirected, weighted, simple graph.

    >>> g = Graph()
    >>> g.add_edge("a", "b", 2.0)
    >>> g.add_edge("b", "c", 1.5)
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.weight("a", "b")
    2.0
    """

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[Node, Node, float]]
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples."""
        graph = cls()
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        return graph

    @classmethod
    def from_adjacency(
        cls, adjacency: Dict[Node, Dict[Node, float]]
    ) -> "Graph":
        """Build a graph from a symmetric ``{u: {v: weight}}`` mapping.

        Node order and per-node neighbor order are preserved exactly as
        given, so ``nodes()`` / ``edges()`` iteration of the result is
        bit-identical to a graph grown through the same sequence of
        ``add_node`` / ``add_edge`` calls — this is the decode entry point
        for integer-id solver cores that replay adjacency structure built
        on flat arrays.  The mapping must be symmetric and self-loop free.

        Raises:
            ValueError: if the mapping has a self-loop or is asymmetric.
            InvalidWeightError: if a weight is negative, NaN, or infinite.
        """
        graph = cls()
        adj = graph._adj
        for u, nbrs in adjacency.items():
            adj[u] = dict(nbrs)
        for u, nbrs in adj.items():
            for v, w in nbrs.items():
                if u == v:
                    raise ValueError(
                        f"self-loop on node {u!r} is not allowed"
                    )
                if not 0.0 <= w < _INF:  # also rejects NaN
                    raise InvalidWeightError(u, v, w)
                mirror = adj.get(v)
                if mirror is None or mirror.get(u) != w:
                    raise ValueError(
                        f"adjacency is not symmetric at edge ({u!r}, {v!r})"
                    )
        return graph

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (a no-op if it already exists)."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``(u, v)`` with the given weight.

        Endpoints are created if absent.  Self-loops are rejected because no
        algorithm in this library is defined on them.

        Raises:
            InvalidWeightError: if ``weight`` is negative, NaN, or infinite.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        if not 0.0 <= weight < _INF:  # also rejects NaN
            raise InvalidWeightError(u, v, weight)
        self._adj.setdefault(u, {})[v] = float(weight)
        self._adj.setdefault(v, {})[u] = float(weight)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the undirected edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every edge incident to it."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the undirected edge ``(u, v)`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``(u, v)``."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def set_weight(self, u: Node, v: Node, weight: float) -> None:
        """Update the weight of an existing edge ``(u, v)``.

        Raises:
            InvalidWeightError: if ``weight`` is negative, NaN, or infinite.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        if not 0.0 <= weight < _INF:  # also rejects NaN
            raise InvalidWeightError(u, v, weight)
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        try:
            return iter(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_items(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate over ``(neighbor, weight)`` pairs for ``node``."""
        try:
            return iter(self._adj[node].items())
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Return the number of edges incident to ``node``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over all edges as ``(u, v, weight)``, each reported once."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield u, v, w

    @property
    def num_nodes(self) -> int:
        """The number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """The number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def total_weight(self) -> float:
        """Return the sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``.

        Unknown nodes are ignored, matching the permissive behaviour needed
        when pruning resource-exhausted elements from a network.
        """
        keep = {n for n in nodes if n in self._adj}
        sub = Graph()
        for node in keep:
            sub.add_node(node)
        for u in keep:
            for v, w in self._adj[u].items():
                if v in keep:
                    sub._adj[u][v] = w
        return sub

    def edge_subgraph(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> "Graph":
        """Return the subgraph containing exactly the given edges.

        Edge weights are taken from this graph; unknown edges raise
        :class:`~repro.exceptions.EdgeNotFoundError`.
        """
        sub = Graph()
        for u, v in edges:
            sub.add_edge(u, v, self.weight(u, v))
        return sub

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


def path_weight(graph: Graph, path: List[Node]) -> float:
    """Return the total weight of a node path ``[v0, v1, ..., vk]``.

    An empty or single-node path has weight zero.
    """
    return sum(graph.weight(u, v) for u, v in zip(path, path[1:]))
