"""Shortest-path algorithms on the :class:`~repro.graph.graph.Graph` type.

Everything in the paper's algorithm suite rests on shortest paths: the
auxiliary-graph edges of ``Appro_Multi`` encode shortest source→server paths,
the KMB Steiner heuristic runs on the metric closure of the terminal set, and
the ``SP`` baseline builds single-source shortest-path trees.  Weights are
non-negative by construction (see :meth:`Graph.add_edge`), so Dijkstra with an
addressable heap is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph.graph import Graph, Node
from repro.graph.heap import IndexedHeap

INFINITY = float("inf")


@dataclass(frozen=True)
class ShortestPathTree:
    """The result of a single-source Dijkstra run.

    Attributes:
        source: the source node.
        distance: map from each reachable node to its distance from ``source``.
        parent: map from each reachable node to its predecessor on a shortest
            path (``source`` maps to ``None``).
    """

    source: Node
    distance: Dict[Node, float]
    parent: Dict[Node, Optional[Node]]

    def reaches(self, node: Node) -> bool:
        """Return whether ``node`` is reachable from the source."""
        return node in self.distance

    def path_to(self, target: Node) -> List[Node]:
        """Return the node path from the source to ``target``.

        Raises:
            DisconnectedGraphError: if ``target`` is unreachable.
        """
        if target not in self.parent:
            raise DisconnectedGraphError(
                f"{target!r} is not reachable from {self.source!r}"
            )
        path: List[Node] = [target]
        while True:
            predecessor = self.parent[path[-1]]
            if predecessor is None:
                break
            path.append(predecessor)
        path.reverse()
        return path


def dijkstra(
    graph: Graph,
    source: Node,
    targets: Optional[Set[Node]] = None,
) -> ShortestPathTree:
    """Run Dijkstra from ``source`` and return the shortest-path tree.

    Args:
        graph: the graph to search.
        source: the start node.
        targets: optional early-exit set; the search stops once every target
            has been settled.  ``None`` settles the whole component.

    Returns:
        A :class:`ShortestPathTree` covering every settled node.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)

    distance: Dict[Node, float] = {}
    parent: Dict[Node, Optional[Node]] = {source: None}
    pending = set(targets) if targets is not None else None
    heap: IndexedHeap = IndexedHeap()
    heap.push(source, 0.0)

    while heap:
        node, dist = heap.pop()
        distance[node] = dist
        if pending is not None:
            pending.discard(node)
            if not pending:
                break
        for neighbor, weight in graph.neighbor_items(node):
            if neighbor in distance:
                continue
            candidate = dist + weight
            if heap.push_or_decrease(neighbor, candidate):
                parent[neighbor] = node
    return ShortestPathTree(source=source, distance=distance, parent=parent)


def shortest_path(graph: Graph, source: Node, target: Node) -> List[Node]:
    """Return one shortest node path from ``source`` to ``target``.

    Raises:
        DisconnectedGraphError: if no path exists.
    """
    tree = dijkstra(graph, source, targets={target})
    return tree.path_to(target)


def shortest_path_length(graph: Graph, source: Node, target: Node) -> float:
    """Return the shortest-path distance from ``source`` to ``target``."""
    tree = dijkstra(graph, source, targets={target})
    if not tree.reaches(target):
        raise DisconnectedGraphError(
            f"{target!r} is not reachable from {source!r}"
        )
    return tree.distance[target]


def single_source_distances(graph: Graph, source: Node) -> Dict[Node, float]:
    """Return distances from ``source`` to every reachable node."""
    return dijkstra(graph, source).distance


def all_pairs_shortest_paths(
    graph: Graph, sources: Optional[Iterable[Node]] = None
) -> Dict[Node, ShortestPathTree]:
    """Run Dijkstra from each node in ``sources`` (default: every node).

    Returns a map ``source -> ShortestPathTree``.  This is the workhorse of
    the metric-closure construction used by the KMB Steiner heuristic; for a
    request touching ``t`` terminals only ``t`` Dijkstra runs are needed, so
    callers should pass ``sources`` explicitly.
    """
    chosen = list(sources) if sources is not None else list(graph.nodes())
    return {source: dijkstra(graph, source) for source in chosen}


def eccentricity(graph: Graph, node: Node) -> float:
    """Return the greatest shortest-path distance from ``node``.

    Raises:
        DisconnectedGraphError: if the graph is disconnected (some node is
            unreachable from ``node``).
    """
    distances = single_source_distances(graph, node)
    if len(distances) != graph.num_nodes:
        raise DisconnectedGraphError(
            f"graph is disconnected: {graph.num_nodes - len(distances)} nodes "
            f"unreachable from {node!r}"
        )
    return max(distances.values())


def diameter(graph: Graph) -> float:
    """Return the weighted diameter of a connected graph (0 for empty/1-node)."""
    nodes = list(graph.nodes())
    if len(nodes) <= 1:
        return 0.0
    return max(eccentricity(graph, node) for node in nodes)
