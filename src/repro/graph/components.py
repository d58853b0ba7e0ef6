"""Connectivity queries: BFS reachability and connected components.

The random-topology generators stitch a disconnected draw together one
component at a time, and the tests check every generated topology with
:func:`is_connected`; neither needs a shortest-path computation.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph, Node


def bfs_reachable(graph: Graph, source: Node) -> Set[Node]:
    """Return the set of nodes reachable from ``source`` (including it)."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    seen = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Return the connected components of ``graph`` as a list of node sets."""
    remaining = set(graph.nodes())
    components: List[Set[Node]] = []
    while remaining:
        start = next(iter(remaining))
        component = bfs_reachable(graph, start)
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Graph) -> bool:
    """Return whether the graph is connected (vacuously true when empty)."""
    if graph.num_nodes == 0:
        return True
    start = next(iter(graph.nodes()))
    return len(bfs_reachable(graph, start)) == graph.num_nodes
