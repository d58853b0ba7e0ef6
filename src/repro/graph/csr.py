"""Flat CSR graph kernel: integer-indexed Dijkstra, bit-identical to dict.

Every algorithm in the paper bottoms out in single-source Dijkstra over the
dict-of-dict :class:`~repro.graph.graph.Graph`.  That engine pays a hash
lookup and a method call per edge relaxation; this module compiles a
topology once into integer-indexed rows and runs the same search over
integer indices:

- :func:`compile_csr` interns nodes (stable ``node -> int`` in insertion
  order) and lays the adjacency out as one tuple of ``(neighbor index,
  weight)`` pairs per node; :class:`CSRGraph` also takes such rows
  directly (the priced graphs of ``Online_CP``, see
  :class:`~repro.core.cost_model.LinkPrices`);
- one search loop fills fresh index rows (distance, parent) and records
  the settle order and the first-relaxation order, with the same
  ``targets=`` early exit as the dict engine;
- :func:`dijkstra_rows` returns those rows as they are — the input of the
  flat solver cores;
- :func:`dijkstra_csr` decodes rows plus orders into a
  :class:`~repro.graph.shortest_paths.ShortestPathTree`, and
  :func:`dijkstra_many` does so for many sources with the target set
  resolved once — the batched entry point for the multi-terminal fills in
  :func:`~repro.graph.steiner.metric_closure` and the per-request origin
  warm-up of :meth:`~repro.graph.spcache.ShortestPathCache.warm`.

**Bit-identity contract.**  The kernel is a faithful replica of the dict
engine, not merely an equivalent one: nodes are interned in
``graph.nodes()`` order and neighbors laid out in ``neighbor_items()``
order, distances accumulate in the same float order (``settled + weight``),
and the heap reproduces :class:`~repro.graph.heap.IndexedHeap` comparison
for comparison (``<=`` on sift-up, strict ``<`` child selection and ``>=``
stop on sift-down, last-entry-to-root on pop).  Equal-priority pops
therefore resolve in exactly the order the dict engine resolves them —
which is what pins parent choice among cost ties — and the decoded
:class:`~repro.graph.shortest_paths.ShortestPathTree` matches the dict
engine's **including dict insertion order** of ``distance`` (settle order)
and ``parent`` (first-relaxation order).  A d-ary heap would be faster per
pop but reorders equal-priority pops, so a binary layout is load-bearing
here; the differential harness and the hypothesis suite in
``tests/graph/test_csr.py`` hold the replica to the original.

A targeted search's rows are exact at every node it settled — a settled
node's distance and parent never change afterwards — and hold tentative
values at nodes it only reached; consumers read such rows at the targets
alone.

The kernel is deliberately pure Python (the repo runs dependency-free):
inside the search loop, list indexing is faster than numpy scalar access.

**Finite-weight precondition.**  The engine uses ``dist[i] == inf`` as the
"not yet improved" sentinel, which folds the settled-node check into the
relaxation comparison: a settled node's distance is already minimal, so
``candidate < dist[neighbor]`` is false exactly when the dict engine's
``neighbor in distance`` guard would skip.  That equivalence needs every
edge weight to be finite (an infinite weight would make an unseen node
indistinguishable from the sentinel).  :class:`~repro.graph.graph.Graph`
rejects non-finite and negative weights where they enter, and
:func:`compile_csr` checks again for the duck-typed views it also accepts
(a :class:`~repro.graph.spcache.ScaledGraphView` product can overflow) —
the same domain the paper's cost model uses and Dijkstra requires anyway.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import InvalidWeightError, NodeNotFoundError
from repro.graph.graph import Node
from repro.graph.shortest_paths import ShortestPathTree
from repro.obs import inc as _obs_inc, span as _obs_span

_INF = float("inf")

#: Per-node adjacency: one tuple of ``(neighbor index, weight)`` per node.
Adjacency = List[Tuple[Tuple[int, float], ...]]

#: Index rows of one search: ``(distance row, parent row)``.
Rows = Tuple[List[float], List[int]]


class CSRGraph:
    """A compiled, immutable view of a graph: interned nodes, per-node rows.

    Attributes:
        nodes: interned node objects; ``nodes[i]`` is the node with index
            ``i`` (insertion order of the source graph).
        index: the inverse map ``node -> int``.
        epoch: optional caller-supplied version tag (e.g. the
            :class:`~repro.network.sdn.SDNetwork` epoch the source graph
            was derived at); purely informational.

    ``adjacency[i]`` lists node ``i``'s ``(neighbor index, weight)`` pairs
    in the order the search must relax them (the source graph's
    ``neighbor_items()`` order), each undirected edge once per endpoint.
    The caller guarantees finite non-negative, symmetric weights (see
    :func:`compile_csr`).
    """

    __slots__ = ("nodes", "index", "epoch", "_adj", "_engine")

    def __init__(
        self,
        nodes: List[Node],
        index: Dict[Node, int],
        adjacency: Adjacency,
        epoch: Optional[int] = None,
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.epoch = epoch
        self._adj = adjacency
        self._engine: Optional[_CSRDijkstra] = None

    @property
    def num_nodes(self) -> int:
        """The number of interned nodes."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """The number of undirected edges."""
        return sum(map(len, self._adj)) // 2

    def engine(self) -> "_CSRDijkstra":
        """Return the (lazily created) shared search engine for this view."""
        engine = self._engine
        if engine is None:
            engine = self._engine = _CSRDijkstra(self)
        return engine

    def adjacency(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node adjacency as tuples of ``(neighbor index, weight)``.

        The view's own rows (one tuple per node, in ``neighbor_items()``
        order), shared — not copied — so flat solver cores can walk the
        topology directly.  Treat it as read-only.
        """
        return self._adj

    def __repr__(self) -> str:
        return f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges})"


def compile_csr(graph, epoch: Optional[int] = None) -> CSRGraph:
    """Compile a graph into a :class:`CSRGraph`.

    ``graph`` may be a :class:`~repro.graph.graph.Graph` or any object with
    the same ``nodes()`` / ``neighbor_items()`` iteration surface (e.g. a
    :class:`~repro.graph.spcache.ScaledGraphView`).  Interning follows
    ``nodes()`` order and the adjacency follows ``neighbor_items()`` order,
    which is what makes the kernel bit-identical to the dict engine.

    Args:
        graph: the topology to compile.
        epoch: optional version tag stored on the view (informational).

    Raises:
        InvalidWeightError: if a weight is negative, NaN, or infinite.
    """
    with _obs_span("csr.compile"):
        _obs_inc("csr.compiles")
        nodes: List[Node] = list(graph.nodes())
        index: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        adjacency: Adjacency = []
        for node in nodes:
            row = []
            for neighbor, weight in graph.neighbor_items(node):
                if not 0.0 <= weight < _INF:  # also rejects NaN
                    raise InvalidWeightError(node, neighbor, weight)
                row.append((index[neighbor], weight))
            adjacency.append(tuple(row))
        return CSRGraph(nodes, index, adjacency, epoch=epoch)


class _CSRDijkstra:
    """Single-source Dijkstra over one compiled view.

    Every entry point runs the one search loop, :meth:`_search`.  Each
    search fills fresh rows, so results can be handed out without copying
    and no workspace needs restoring between runs.  The adjacency is held
    as one tuple of ``(neighbor, weight)`` pairs per node — iterating
    pre-paired tuples beats index-range walks with double indexing, and
    plain Python lists/tuples index faster from the interpreter loop than
    typed arrays, which re-box every element on read.
    """

    __slots__ = ("_nodes", "_index", "_adj", "_size")

    def __init__(self, csr: CSRGraph) -> None:
        self._nodes: List[Node] = csr.nodes
        self._index: Dict[Node, int] = csr.index
        self._adj: Adjacency = csr.adjacency()
        self._size = len(csr.nodes)

    def run(
        self, source: Node, targets: Optional[Set[Node]] = None
    ) -> ShortestPathTree:
        """Run Dijkstra from ``source``; decode to a :class:`ShortestPathTree`.

        Mirrors :func:`repro.graph.shortest_paths.dijkstra` exactly,
        including the ``targets=`` early exit (the search stops once every
        target has been settled; a target absent from the graph can never
        settle, so it disables the early exit exactly as an unreachable
        pending node does in the dict engine; an empty target set stops
        after the source itself settles).

        Raises:
            NodeNotFoundError: if ``source`` is not in the compiled graph.
        """
        return self.run_resolved(source, self.resolve_targets(targets))

    def resolve_targets(
        self, targets: Optional[Iterable[Node]] = None
    ) -> Optional[frozenset]:
        """Intern a target set once, for reuse across a batch of sources.

        Returns ``None`` for "settle the whole component": either no
        targets were given, or some target is absent from the compiled
        graph — the dict engine's pending set could then never empty, so
        there is no early exit and the result equals an untargeted run.
        Otherwise returns the frozen set of target *indices* (possibly
        empty: the search stops right after the source settles).
        """
        if targets is None:
            return None
        index_get = self._index.get
        pending = set()
        for target in targets:
            target_idx = index_get(target)
            if target_idx is None:
                return None
            pending.add(target_idx)
        return frozenset(pending)

    def run_resolved(
        self, source: Node, resolved: Optional[frozenset]
    ) -> ShortestPathTree:
        """:meth:`run` with the target set already interned.

        ``resolved`` must come from :meth:`resolve_targets` on this same
        engine.  :func:`dijkstra_many` resolves the shared target set once
        and calls this per source, instead of re-hashing every target node
        object on every source of the batch.

        The decode reads the search's orders: ``distance`` is filled in
        settle order and ``parent`` in first-relaxation order, which are
        the dict engine's insertion orders.
        """
        source_idx = self._source_index(source)
        dist, parent, settled, relaxed = self._search(source_idx, resolved)
        nodes = self._nodes
        distance = {nodes[i]: dist[i] for i in settled}
        parent_map: Dict[Node, Optional[Node]] = {nodes[source_idx]: None}
        for i in relaxed:
            parent_map[nodes[i]] = nodes[parent[i]]
        return ShortestPathTree(
            source=source, distance=distance, parent=parent_map
        )

    def rows(self, source: Node, resolved: Optional[frozenset]) -> Rows:
        """The search's ``(distance row, parent row)``, undecoded.

        ``distance[i]`` is ``inf`` for a node the search never reached and
        ``parent[i]`` is ``-1`` for the source and unreached nodes.
        """
        dist, parent, _, _ = self._search(self._source_index(source), resolved)
        return dist, parent

    def _source_index(self, source: Node) -> int:
        try:
            return self._index[source]
        except KeyError:
            raise NodeNotFoundError(source) from None

    # ------------------------------------------------------------------
    # the search loop (inlined heap — this loop is the whole point)
    # ------------------------------------------------------------------
    def _search(
        self, source_idx: int, resolved: Optional[frozenset]
    ) -> Tuple[List[float], List[int], List[int], List[int]]:
        """Settle from ``source_idx``; return rows plus both orders.

        Returns ``(dist, parent, settled, relaxed)``: the index rows, the
        settle order, and the first-relaxation order of every node other
        than the source.  With ``resolved`` given the search stops once
        every index in it has popped.  The flat binary heap replicates
        ``IndexedHeap`` operation for operation — see the module docstring
        for why tie order matters.  ``pos`` is only meaningful for queued
        nodes: a settled node's slot goes stale rather than being written
        back, because nothing reads it (a settled node can never win the
        relaxation comparison).
        """
        _obs_inc("csr.dijkstra.calls")
        n = self._size
        adj = self._adj
        dist = [_INF] * n
        parent = [-1] * n
        pos = [-1] * n
        pending = None if resolved is None else set(resolved)
        settled: List[int] = []
        relaxed: List[int] = []
        settle = settled.append
        relax = relaxed.append
        hprio: List[float] = [0.0]
        hkey: List[int] = [source_idx]
        hprio_pop = hprio.pop
        hkey_pop = hkey.pop
        hprio_push = hprio.append
        hkey_push = hkey.append
        dist[source_idx] = 0.0
        pos[source_idx] = 0

        while hprio:
            # -- pop the minimum (IndexedHeap.pop) -----------------------
            node = hkey[0]
            node_dist = hprio[0]
            last_prio = hprio_pop()
            last_key = hkey_pop()
            settle(node)
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
            if pending is not None:
                pending.discard(node)
                if not pending:
                    break
            # -- relax neighbors ----------------------------------------
            for neighbor, weight in adj[node]:
                # The sum is recomputed on accept: most relaxations reject,
                # and comparing inline keeps that majority path one local
                # store shorter (same operands, bit-identical result).
                if node_dist + weight < dist[neighbor]:
                    candidate = node_dist + weight
                    dist[neighbor] = candidate
                    parent[neighbor] = node
                    hole = pos[neighbor]
                    if hole < 0:
                        relax(neighbor)
                        hole = len(hprio)
                        hprio_push(candidate)
                        hkey_push(neighbor)
                    # -- sift up (IndexedHeap._sift_up) -----------------
                    while hole > 0:
                        up = (hole - 1) >> 1
                        up_prio = hprio[up]
                        if up_prio <= candidate:
                            break
                        moved = hkey[up]
                        hprio[hole] = up_prio
                        hkey[hole] = moved
                        pos[moved] = hole
                        hole = up
                    hprio[hole] = candidate
                    hkey[hole] = neighbor
                    pos[neighbor] = hole
        return dist, parent, settled, relaxed


def dijkstra_csr(
    csr: CSRGraph, source: Node, targets: Optional[Set[Node]] = None
) -> ShortestPathTree:
    """Single-source Dijkstra over a compiled view (bit-identical decode).

    Drop-in equivalent of :func:`repro.graph.shortest_paths.dijkstra` on
    the source graph — identical distances, parents, and dict insertion
    orders.
    """
    return csr.engine().run(source, targets)


def dijkstra_rows(
    csr: CSRGraph, source: Node, targets: Optional[Set[Node]] = None
) -> Rows:
    """Single-source Dijkstra over a compiled view, as index rows.

    The same search as :func:`dijkstra_csr` without the decode: returns
    ``(distance row, parent row)`` indexed by the view's node indices.
    With ``targets`` the rows are exact at every settled node (each
    target, unless unreachable) and tentative elsewhere.

    Raises:
        NodeNotFoundError: if ``source`` is not in the compiled graph.
    """
    engine = csr.engine()
    return engine.rows(source, engine.resolve_targets(targets))


def dijkstra_many(
    csr: CSRGraph,
    sources: Sequence[Node],
    targets: Optional[Set[Node]] = None,
) -> Dict[Node, ShortestPathTree]:
    """Batched Dijkstra sweep: one decoded tree per source.

    With ``targets`` given, each source's search stops once every target is
    settled (a source that is itself a target counts the moment it pops,
    so passing the full terminal set matches the dict engine's per-source
    ``terminal_set - {source}`` early exit exactly).

    Returns a ``source -> tree`` dict in ``sources`` order (duplicates
    collapse onto the first occurrence, which is also the only one run).
    The shared target set is resolved to indices once for the whole batch
    (each source still gets its own pending copy, so early exits never
    leak state between sources).
    """
    _obs_inc("csr.batch.calls")
    engine = csr.engine()
    resolved = engine.resolve_targets(targets)
    trees: Dict[Node, ShortestPathTree] = {}
    for source in sources:
        if source not in trees:
            trees[source] = engine.run_resolved(source, resolved)
    return trees
