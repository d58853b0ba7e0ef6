"""The Kou–Markowsky–Berman (KMB) Steiner-tree 2-approximation.

Both of the paper's algorithms call "the approximation algorithm due to Kou et
al. [12]" as a black box: ``Appro_Multi`` runs it on each auxiliary graph, and
``Online_CP`` runs it per candidate server with terminals ``{s_k, v} ∪ D_k``.
The algorithm (Kou, Markowsky & Berman, *Acta Informatica* 1981) achieves a
``2(1 − 1/t)``-approximation for ``t`` terminals:

1. build the metric closure of the terminal set (complete graph whose edge
   weights are shortest-path distances in ``G``);
2. compute an MST of the metric closure;
3. expand every MST edge into its underlying shortest path, yielding a
   subgraph ``H`` of ``G``;
4. compute an MST of ``H``;
5. repeatedly delete non-terminal leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exceptions import DisconnectedGraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph, compile_csr, dijkstra_many
from repro.graph.graph import Graph, Node
from repro.graph.mst import kruskal_mst, prim_mst
from repro.graph.shortest_paths import ShortestPathTree
from repro.graph.tree import prune_leaves
from repro.obs import inc as _obs_inc, span as _obs_span


@dataclass(frozen=True)
class MetricClosure:
    """Shortest-path metric over a terminal set.

    Attributes:
        closure: complete graph on the terminals, weighted by shortest-path
            distance in the host graph.
        trees: one :class:`ShortestPathTree` per terminal, used to expand
            closure edges back into real paths.
    """

    closure: Graph
    trees: Dict[Node, ShortestPathTree] = field(repr=False)

    def expand_edge(self, u: Node, v: Node) -> List[Node]:
        """Return the host-graph path realizing closure edge ``(u, v)``."""
        return self.trees[u].path_to(v)


def metric_closure(
    graph: Graph,
    terminals: Sequence[Node],
    compiled: Optional[CSRGraph] = None,
) -> MetricClosure:
    """Build the shortest-path metric closure over ``terminals``.

    Args:
        graph: the host graph.
        terminals: terminal nodes; duplicates collapse, order is kept.
        compiled: an already-compiled CSR view of ``graph``.  Callers that
            hold one (e.g. via ``ShortestPathCache.compiled()``) pass it so
            the closure sweep reuses the compilation instead of paying a
            fresh ``compile_csr`` — the one-compilation-per-request rule.

    Raises:
        NodeNotFoundError: if a terminal is not in the graph.
        DisconnectedGraphError: if two terminals are mutually unreachable.
    """
    terminal_list = list(dict.fromkeys(terminals))  # dedupe, keep order
    for terminal in terminal_list:
        if not graph.has_node(terminal):
            raise NodeNotFoundError(terminal)

    # Batched sweep over one compiled view: each source discards itself the
    # moment it pops, so passing the full terminal set stops each search
    # once the *other* terminals are settled.  This is the uncached KMB
    # entry point for arbitrary one-shot graphs (the hot path uses
    # kmb_steiner_tree_cached + ShortestPathCache, and callers holding a
    # cache pass ``compiled=``); the targets= early exit computes partial
    # trees a shared cache must never memoize.
    csr = compiled if compiled is not None else compile_csr(graph)
    trees = dijkstra_many(  # repro-lint: disable=RL001
        csr, terminal_list, targets=set(terminal_list)
    )
    closure = Graph()
    for terminal in terminal_list:
        closure.add_node(terminal)
        tree = trees[terminal]
        for other in terminal_list:
            if other == terminal:
                continue
            if not tree.reaches(other):
                raise DisconnectedGraphError(
                    f"terminals {terminal!r} and {other!r} are disconnected"
                )
            closure.add_edge(terminal, other, tree.distance[other])
    return MetricClosure(closure=closure, trees=trees)


def kmb_steiner_tree(
    graph: Graph,
    terminals: Sequence[Node],
    compiled: Optional[CSRGraph] = None,
) -> Graph:
    """Return a KMB 2-approximate Steiner tree spanning ``terminals``.

    The result is a subgraph of ``graph`` that is a tree, contains every
    terminal, and whose every leaf is a terminal.  A single terminal yields a
    one-node tree.  ``compiled`` threads an existing CSR view of ``graph``
    into the metric-closure sweep (see :func:`metric_closure`).

    Raises:
        DisconnectedGraphError: if the terminals do not share a component.
        ValueError: if ``terminals`` is empty.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("kmb_steiner_tree needs at least one terminal")
    if len(terminal_list) == 1:
        only = terminal_list[0]
        if not graph.has_node(only):
            raise NodeNotFoundError(only)
        tree = Graph()
        tree.add_node(only)
        return tree

    _obs_inc("kmb.calls")
    with _obs_span("kmb"):
        # Steps 1-2: MST of the metric closure.
        closure = metric_closure(graph, terminal_list, compiled=compiled)
        closure_mst = prim_mst(closure.closure)

        # Step 3: expand closure MST edges into shortest paths.
        expanded = Graph()
        for u, v, _ in closure_mst.edges():
            path = closure.expand_edge(u, v)
            for a, b in zip(path, path[1:]):
                expanded.add_edge(a, b, graph.weight(a, b))

        # Step 4: MST of the expanded subgraph (connected by construction).
        expanded_mst = kruskal_mst(expanded)

        # Step 5: drop non-terminal leaves.
        with _obs_span("prune"):
            return prune_leaves(expanded_mst, keep=terminal_list)


def kmb_steiner_tree_cached(
    graph: Graph,
    trees: Dict[Node, ShortestPathTree],
    terminals: Sequence[Node],
) -> Graph:
    """KMB using pre-run Dijkstra trees instead of fresh searches.

    ``Online_CP`` evaluates one Steiner tree per candidate server, but the
    candidate terminal sets overlap heavily (``{s_k, v} ∪ D_k`` varies only
    in ``v``).  Callers run Dijkstra once per distinct terminal and pass the
    resulting trees here; the closure is then assembled from lookups.  The
    output is identical to :func:`kmb_steiner_tree` up to shortest-path tie
    breaking.

    Args:
        graph: the host graph (for edge weights during expansion).
        trees: map from each terminal to its full Dijkstra tree on ``graph``.
        terminals: the terminals to span.

    Raises:
        DisconnectedGraphError: if two terminals are mutually unreachable.
        KeyError: if a terminal has no cached Dijkstra tree.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("kmb_steiner_tree_cached needs at least one terminal")
    if len(terminal_list) == 1:
        only = terminal_list[0]
        tree = Graph()
        tree.add_node(only)
        return tree

    _obs_inc("kmb.calls")
    with _obs_span("kmb"):
        closure = Graph()
        for terminal in terminal_list:
            closure.add_node(terminal)
        for i, u in enumerate(terminal_list):
            distances = trees[u].distance
            for v in terminal_list[i + 1 :]:
                if v not in distances:
                    raise DisconnectedGraphError(
                        f"terminals {u!r} and {v!r} are disconnected"
                    )
                closure.add_edge(u, v, distances[v])
        closure_mst = prim_mst(closure)

        expanded = Graph()
        for u, v, _ in closure_mst.edges():
            anchor = u if u in trees else v
            other = v if anchor == u else u
            path = trees[anchor].path_to(other)
            for a, b in zip(path, path[1:]):
                expanded.add_edge(a, b, graph.weight(a, b))
        expanded_mst = kruskal_mst(expanded)
        with _obs_span("prune"):
            return prune_leaves(expanded_mst, keep=terminal_list)


def steiner_tree_cost(tree: Graph) -> float:
    """Return the total edge weight of a Steiner tree."""
    return tree.total_weight()


def validate_steiner_tree(
    graph: Graph, tree: Graph, terminals: Sequence[Node]
) -> None:
    """Assert the structural invariants of a Steiner tree; raise on violation.

    Checks that ``tree`` (a) spans every terminal, (b) is a tree, (c) only
    uses edges of ``graph`` with matching weights, and (d) has no
    non-terminal leaves.  Used by the test suite and by debug assertions.
    """
    from repro.graph.tree import is_tree  # local import to avoid cycle

    terminal_set = set(terminals)
    missing = [t for t in terminal_set if not tree.has_node(t)]
    if missing:
        raise AssertionError(f"tree misses terminals {missing!r}")
    if not is_tree(tree):
        raise AssertionError("result is not a tree")
    for u, v, w in tree.edges():
        if not graph.has_edge(u, v):
            raise AssertionError(f"tree edge ({u!r}, {v!r}) not in host graph")
        if abs(graph.weight(u, v) - w) > 1e-9:
            raise AssertionError(
                f"tree edge ({u!r}, {v!r}) weight {w} != host "
                f"{graph.weight(u, v)}"
            )
    if tree.num_nodes > 1:
        for node in tree.nodes():
            if tree.degree(node) == 1 and node not in terminal_set:
                raise AssertionError(f"non-terminal leaf {node!r}")
