"""Minimum spanning trees: Prim (heap-based) and Kruskal (union–find).

The KMB Steiner-tree approximation needs two MST computations per invocation
(one on the metric closure, one on the expanded subgraph), and the
``Alg_One_Server`` baseline builds an MST over each request's destination set,
so both classic algorithms are provided.  Prim is the default for dense metric
closures; Kruskal is exposed because it is the natural choice for sparse
expanded subgraphs and because having two independent implementations lets the
test suite cross-check them against each other and against networkx.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import DisconnectedGraphError
from repro.graph.graph import Graph, Node
from repro.graph.heap import IndexedHeap
from repro.graph.unionfind import DisjointSet


def prim_mst(graph: Graph, root: Optional[Node] = None) -> Graph:
    """Return a minimum spanning tree of a connected graph using Prim.

    Args:
        graph: a connected graph.
        root: optional node to grow the tree from (any node by default).

    Raises:
        DisconnectedGraphError: if the graph is not connected.
    """
    if graph.num_nodes == 0:
        return Graph()
    if root is None:
        root = next(iter(graph.nodes()))

    tree = Graph()
    tree.add_node(root)
    in_tree = {root}
    attach = {}  # node -> (tree endpoint, weight) of its cheapest connection
    heap: IndexedHeap = IndexedHeap()
    for neighbor, weight in graph.neighbor_items(root):
        heap.push(neighbor, weight)
        attach[neighbor] = (root, weight)

    while heap:
        node, _ = heap.pop()
        anchor, weight = attach[node]
        tree.add_edge(anchor, node, weight)
        in_tree.add(node)
        for neighbor, edge_weight in graph.neighbor_items(node):
            if neighbor in in_tree:
                continue
            if heap.push_or_decrease(neighbor, edge_weight):
                attach[neighbor] = (node, edge_weight)

    if tree.num_nodes != graph.num_nodes:
        raise DisconnectedGraphError(
            f"graph is not connected: spanning tree covers {tree.num_nodes} "
            f"of {graph.num_nodes} nodes"
        )
    return tree


def kruskal_mst(graph: Graph) -> Graph:
    """Return a minimum spanning forest of ``graph`` using Kruskal.

    Unlike :func:`prim_mst`, a disconnected input yields a spanning *forest*
    (one tree per component) rather than an error, which is what the
    capacitated solvers want after pruning exhausted links.
    """
    forest = Graph()
    for node in graph.nodes():
        forest.add_node(node)
    components = DisjointSet(graph.nodes())
    for u, v, weight in sorted(graph.edges(), key=lambda edge: edge[2]):
        if components.union(u, v):
            forest.add_edge(u, v, weight)
    return forest
