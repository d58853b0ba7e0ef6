"""Exact minimum Steiner trees via the Dreyfus–Wagner dynamic program.

The paper proves a ``2K`` approximation ratio for ``Appro_Multi`` against the
*optimal* pseudo-multicast tree.  To validate that bound empirically (and to
measure the empirical ratio of the KMB heuristic itself) the test-suite and
the ablation benchmarks need true optima on small instances.  The
Dreyfus–Wagner algorithm computes them in ``O(3^t · n + 2^t · Dijkstra)`` time
for ``t`` terminals, which is comfortable for the instance sizes used in
tests (``t ≤ 7``, ``n ≤ 40``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph.graph import Graph, Node
from repro.graph.heap import IndexedHeap

INFINITY = float("inf")

# Backpointer variants for tree reconstruction:
#   ("merge", sub_mask)   dp[mask][v] = dp[sub][v] + dp[mask ^ sub][v]
#   ("edge", u)           dp[mask][v] = dp[mask][u] + w(u, v)
#   ("leaf",)             base case: singleton terminal at v itself
_Back = Tuple


def dreyfus_wagner(
    graph: Graph, terminals: Sequence[Node]
) -> Tuple[float, Graph]:
    """Return ``(cost, tree)`` of a minimum Steiner tree over ``terminals``.

    Raises:
        ValueError: if ``terminals`` is empty or too large (> 16) to be
            solved exactly in reasonable time.
        DisconnectedGraphError: if the terminals are not mutually reachable.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("dreyfus_wagner needs at least one terminal")
    if len(terminal_list) > 16:
        raise ValueError(
            f"{len(terminal_list)} terminals is too many for exact solving"
        )
    for terminal in terminal_list:
        if not graph.has_node(terminal):
            raise NodeNotFoundError(terminal)

    if len(terminal_list) == 1:
        tree = Graph()
        tree.add_node(terminal_list[0])
        return 0.0, tree

    nodes = list(graph.nodes())
    t = len(terminal_list)
    full_mask = (1 << t) - 1

    # dp[mask] maps node -> best cost of a tree spanning (terminals in mask)
    # plus that node; back[mask] maps node -> backpointer.
    dp: List[Dict[Node, float]] = [dict() for _ in range(full_mask + 1)]
    back: List[Dict[Node, _Back]] = [dict() for _ in range(full_mask + 1)]

    for i, terminal in enumerate(terminal_list):
        mask = 1 << i
        dp[mask][terminal] = 0.0
        back[mask][terminal] = ("leaf",)
        _dijkstra_relax(graph, dp[mask], back[mask])

    for mask in range(1, full_mask + 1):
        if mask & (mask - 1) == 0:  # singletons already done
            continue
        table = dp[mask]
        pointers = back[mask]
        # merge step: combine two complementary sub-masks at a common node
        sub = (mask - 1) & mask
        while sub:
            complement = mask ^ sub
            if sub < complement:  # each split considered once
                small, large = dp[sub], dp[complement]
                for node, cost_small in small.items():
                    cost_large = large.get(node)
                    if cost_large is None:
                        continue
                    candidate = cost_small + cost_large
                    if candidate < table.get(node, INFINITY):
                        table[node] = candidate
                        pointers[node] = ("merge", sub)
            sub = (sub - 1) & mask
        # grow step: propagate through the graph with Dijkstra
        _dijkstra_relax(graph, table, pointers)

    best_cost = INFINITY
    best_node: Optional[Node] = None
    for node, cost in dp[full_mask].items():
        if cost < best_cost:
            best_cost = cost
            best_node = node
    if best_node is None or best_cost == INFINITY:
        raise DisconnectedGraphError("terminals are not mutually reachable")

    tree = Graph()
    tree.add_node(best_node)
    _reconstruct(graph, dp, back, full_mask, best_node, tree)
    return best_cost, tree


def _dijkstra_relax(
    graph: Graph, table: Dict[Node, float], pointers: Dict[Node, _Back]
) -> None:
    """Relax ``table`` costs along graph edges (multi-source Dijkstra).

    On entry ``table`` holds tentative costs at some nodes; on exit every node
    reachable from them holds its cheapest cost of the form
    ``table[u] + dist(u, v)``, with ``pointers`` recording the edge steps.
    """
    heap: IndexedHeap = IndexedHeap()
    for node, cost in table.items():
        heap.push(node, cost)
    settled = set()
    while heap:
        node, cost = heap.pop()
        settled.add(node)
        for neighbor, weight in graph.neighbor_items(node):
            if neighbor in settled:
                continue
            candidate = cost + weight
            if candidate < table.get(neighbor, INFINITY):
                table[neighbor] = candidate
                pointers[neighbor] = ("edge", node)
                heap.push_or_decrease(neighbor, candidate)


def _reconstruct(
    graph: Graph,
    dp: List[Dict[Node, float]],
    back: List[Dict[Node, _Back]],
    mask: int,
    node: Node,
    tree: Graph,
) -> None:
    """Walk backpointers, adding the realized edges to ``tree``."""
    pointer = back[mask].get(node)
    if pointer is None:
        raise AssertionError(f"missing backpointer for mask={mask} node={node!r}")
    kind = pointer[0]
    if kind == "leaf":
        tree.add_node(node)
        return
    if kind == "edge":
        previous = pointer[1]
        tree.add_edge(previous, node, graph.weight(previous, node))
        _reconstruct(graph, dp, back, mask, previous, tree)
        return
    if kind == "merge":
        sub = pointer[1]
        _reconstruct(graph, dp, back, sub, node, tree)
        _reconstruct(graph, dp, back, mask ^ sub, node, tree)
        return
    raise AssertionError(f"unknown backpointer {pointer!r}")
