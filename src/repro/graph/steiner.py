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

Besides the dict-``Graph`` pipeline, this module holds its index-space
replicas — ``prim_mst`` on a metric closure, ``kruskal_mst``,
``prune_leaves`` and ``Graph.edges()`` order over ``{u: {v: weight}}``
adjacencies — shared by the two flat solver cores:
:class:`~repro.core.fasteval.CSRCombinationEvaluator` (``Appro_Multi``) and
:func:`kmb_steiner_tree_flat` (``Online_CP``).  Each replica runs the same
comparisons in the same order as its original, so a flat tree iterates
exactly like the dict ``Graph`` the reference pipeline builds.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import (
    DisconnectedGraphError,
    EdgeNotFoundError,
    NodeNotFoundError,
)
from repro.graph.csr import CSRGraph, Rows, compile_csr, dijkstra_many
from repro.graph.graph import Graph, Node
from repro.graph.mst import kruskal_mst, prim_mst
from repro.graph.shortest_paths import INFINITY, ShortestPathTree
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


# ----------------------------------------------------------------------
# index-space replicas (the flat solver cores)
# ----------------------------------------------------------------------

#: An index-space graph ``{u: {v: weight}}``, symmetric, whose iteration
#: order replicates the dict ``Graph`` the reference pipeline builds.
FlatAdjacency = Dict[int, Dict[int, float]]


def flat_edges(adjacency: FlatAdjacency) -> List[Tuple[int, int, float]]:
    """``Graph.edges()`` replica: every edge once, in iteration order.

    An edge is reported from whichever endpoint iterates first — exactly
    where ``Graph.edges()``'s seen-set lets it through.
    """
    edges: List[Tuple[int, int, float]] = []
    done = set()
    for u, row in adjacency.items():
        for v, w in row.items():
            if v not in done:
                edges.append((u, v, w))
        done.add(u)
    return edges


def prim_closure(
    matrix: List[List[float]], orders: Sequence[Sequence[int]]
) -> FlatAdjacency:
    """``prim_mst`` replica on a complete closure graph, rooted at id 0.

    ``matrix[i][j]`` is the closure weight between ids ``i`` and ``j``
    and ``orders[i]`` id ``i``'s adjacency order in the reference closure
    ``Graph``.  The inlined flat heap replicates ``IndexedHeap`` operation
    for operation — ``<=`` stop on sift-up, strict ``<`` child selection
    and ``>=`` stop on sift-down, last-entry-to-root on pop,
    strict-decrease on ``push_or_decrease`` — so equal-weight closure
    edges attach exactly as ``prim_mst`` attaches them.  Returns the tree
    adjacency in replica insertion order.
    """
    size_nodes = len(matrix)
    hprio: List[float] = []
    hkey: List[int] = []
    pos = [-1] * size_nodes
    attach_anchor = [-1] * size_nodes
    attach_weight = [0.0] * size_nodes
    in_tree = [False] * size_nodes
    in_tree[0] = True
    adj: FlatAdjacency = {0: {}}
    # root's neighbors, pushed in adjacency order (heap.push)
    row0 = matrix[0]
    for neighbor in orders[0]:
        weight = row0[neighbor]
        hole = len(hprio)
        hprio.append(weight)
        hkey.append(neighbor)
        while hole > 0:
            up = (hole - 1) >> 1
            up_prio = hprio[up]
            if up_prio <= weight:
                break
            moved = hkey[up]
            hprio[hole] = up_prio
            hkey[hole] = moved
            pos[moved] = hole
            hole = up
        hprio[hole] = weight
        hkey[hole] = neighbor
        pos[neighbor] = hole
        attach_anchor[neighbor] = 0
        attach_weight[neighbor] = weight
    while hprio:
        node = hkey[0]
        last_prio = hprio.pop()
        last_key = hkey.pop()
        pos[node] = -1
        size = len(hprio)
        if size:
            hole = 0
            while True:
                child = 2 * hole + 1
                if child >= size:
                    break
                child_prio = hprio[child]
                right = child + 1
                if right < size and (right_prio := hprio[right]) < child_prio:
                    child = right
                    child_prio = right_prio
                if child_prio >= last_prio:
                    break
                moved = hkey[child]
                hprio[hole] = child_prio
                hkey[hole] = moved
                pos[moved] = hole
                hole = child
            hprio[hole] = last_prio
            hkey[hole] = last_key
            pos[last_key] = hole
        anchor = attach_anchor[node]
        weight = attach_weight[node]
        # tree.add_edge(anchor, node, weight): anchor's entry first, then
        # the fresh node's — dict-replica insertion order.
        adj[anchor][node] = weight
        adj[node] = {anchor: weight}
        in_tree[node] = True
        node_row = matrix[node]
        for neighbor in orders[node]:
            if in_tree[neighbor]:
                continue
            edge_weight = node_row[neighbor]
            hole = pos[neighbor]
            if hole < 0:
                hole = len(hprio)
                hprio.append(edge_weight)
                hkey.append(neighbor)
            elif edge_weight >= hprio[hole]:
                continue  # push_or_decrease returned False
            else:
                hprio[hole] = edge_weight
            while hole > 0:
                up = (hole - 1) >> 1
                up_prio = hprio[up]
                if up_prio <= edge_weight:
                    break
                moved = hkey[up]
                hprio[hole] = up_prio
                hkey[hole] = moved
                pos[moved] = hole
                hole = up
            hprio[hole] = edge_weight
            hkey[hole] = neighbor
            pos[neighbor] = hole
            attach_anchor[neighbor] = node
            attach_weight[neighbor] = edge_weight
    return adj


def _edge_weight_key(edge: Tuple[int, int, float]) -> float:
    """Sort key replicating ``kruskal_mst``'s ``lambda edge: edge[2]``."""
    return edge[2]


def kruskal_forest(graph: FlatAdjacency) -> FlatAdjacency:
    """``kruskal_mst`` replica: stable sort by weight, then union–find.

    The forest lists every node of ``graph`` in its order and gains edges
    in acceptance order, as ``kruskal_mst``'s ``Graph`` does.  Which root a
    union keeps cannot change which edges are accepted.
    """
    edge_list = flat_edges(graph)
    edge_list.sort(key=_edge_weight_key)
    dsu = {u: u for u in graph}
    forest: FlatAdjacency = {u: {} for u in graph}
    for u, v, w in edge_list:
        ru = u
        while dsu[ru] != ru:
            dsu[ru] = dsu[dsu[ru]]
            ru = dsu[ru]
        rv = v
        while dsu[rv] != rv:
            dsu[rv] = dsu[dsu[rv]]
            rv = dsu[rv]
        if ru != rv:
            dsu[ru] = rv
            forest[u][v] = w
            forest[v][u] = w
    return forest


def prune_leaves_flat(
    tree: FlatAdjacency, protected: AbstractSet[int]
) -> FlatAdjacency:
    """``prune_leaves`` replica, in place (callers pass a fresh adjacency)."""
    candidates = deque(
        node
        for node, row in tree.items()
        if len(row) <= 1 and node not in protected
    )
    while candidates:
        leaf = candidates.popleft()
        row = tree.get(leaf)
        if row is None or leaf in protected:
            continue
        if len(row) > 1:
            continue
        neighbors = list(row)
        for neighbor in neighbors:
            del tree[neighbor][leaf]
        del tree[leaf]
        for neighbor in neighbors:
            if len(tree[neighbor]) <= 1 and neighbor not in protected:
                candidates.append(neighbor)
    return tree


@functools.lru_cache(maxsize=64)
def _terminal_orders(count: int) -> Tuple[Tuple[int, ...], ...]:
    """Adjacency orders of a ``count``-terminal closure ``Graph``.

    The closure adds its edges in ``i < j`` loop order, so terminal ``i``
    lists every other terminal in ascending order.
    """
    return tuple(
        tuple(j for j in range(count) if j != i) for i in range(count)
    )


def kmb_steiner_tree_flat(
    csr: CSRGraph,
    terminals: Sequence[int],
    rows: Callable[[int], Rows],
) -> FlatAdjacency:
    """:func:`kmb_steiner_tree_cached` over index rows, bit-identical.

    ``terminals`` are node indices of ``csr`` and ``rows(t)`` returns
    terminal ``t``'s Dijkstra rows on ``csr`` (see
    :func:`~repro.graph.csr.dijkstra_rows`).  The closure comes from the
    distance rows; Prim runs on it with the first terminal as root and
    every terminal's neighbors in ascending terminal order; each closure
    MST edge expands by walking the parent row of the endpoint that
    iterates first; a Kruskal step and leaf pruning finish the tree.  The
    result iterates in the same order as the ``Graph``
    :func:`kmb_steiner_tree_cached` returns for the same terminals.

    A terminal's row is fetched at most once, and only if read: at the
    terminals after it in the list, and at its closure MST neighbors
    added to the MST after it.  A row that is exact there is enough.

    Raises:
        DisconnectedGraphError: if two terminals are mutually unreachable.
        ValueError: if ``terminals`` is empty.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("kmb_steiner_tree_flat needs at least one terminal")
    if len(terminal_list) == 1:
        return {terminal_list[0]: {}}

    _obs_inc("kmb.calls")
    with _obs_span("kmb"):
        count = len(terminal_list)
        fetched: List[Optional[Rows]] = [None] * count

        def rows_at(position: int) -> Rows:
            found = fetched[position]
            if found is None:
                found = fetched[position] = rows(terminal_list[position])
            return found

        # Steps 1-2: the closure (terminal i's row read at every j > i),
        # then its MST.
        matrix = [[0.0] * count for _ in range(count)]
        for i in range(count - 1):
            dist = rows_at(i)[0]
            row_i = matrix[i]
            for j in range(i + 1, count):
                distance = dist[terminal_list[j]]
                if distance == INFINITY:
                    nodes = csr.nodes
                    raise DisconnectedGraphError(
                        f"terminals {nodes[terminal_list[i]]!r} and "
                        f"{nodes[terminal_list[j]]!r} are disconnected"
                    )
                row_i[j] = distance
                matrix[j][i] = distance
        closure_tree = prim_closure(matrix, _terminal_orders(count))

        # Step 3: expand each closure MST edge along the anchor's parents.
        adjacency = csr.adjacency()
        expanded: FlatAdjacency = {}
        for anchor, other, _ in flat_edges(closure_tree):
            parent = rows_at(anchor)[1]
            node = terminal_list[other]
            path = [node]
            node = parent[node]
            while node != -1:
                path.append(node)
                node = parent[node]
            path.reverse()
            for a, b in zip(path, path[1:]):
                for neighbor, weight in adjacency[a]:
                    if neighbor == b:
                        break
                else:  # pragma: no cover - parent rows follow real edges
                    raise EdgeNotFoundError(csr.nodes[a], csr.nodes[b])
                row = expanded.get(a)
                if row is None:
                    row = expanded[a] = {}
                row[b] = weight
                row = expanded.get(b)
                if row is None:
                    row = expanded[b] = {}
                row[a] = weight

        # Steps 4-5: MST of the expansion, then drop non-terminal leaves.
        forest = kruskal_forest(expanded)
        with _obs_span("prune"):
            return prune_leaves_flat(forest, set(terminal_list))


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
