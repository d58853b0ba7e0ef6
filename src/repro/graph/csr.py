"""Flat CSR graph kernel: integer-indexed Dijkstra, bit-identical to dict.

Every algorithm in the paper bottoms out in single-source Dijkstra over the
dict-of-dict :class:`~repro.graph.graph.Graph`.  That engine pays a hash
lookup and a method call per edge relaxation; this module compiles a
topology once into flat arrays and runs the same search over integer
indices:

- :func:`compile_csr` interns nodes (stable ``node -> int`` in insertion
  order) and lays the adjacency out in CSR form — ``indptr``/``indices`` as
  ``array('q')`` and ``weights`` as ``array('d')``;
- :func:`dijkstra_csr` runs single-source Dijkstra over the compiled view
  with flat distance/parent arrays and an inlined flat binary heap,
  supporting the same ``targets=`` early exit as the dict engine;
- :func:`dijkstra_many` sweeps many sources over one shared workspace —
  the batched entry point for the multi-terminal fills in
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

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import InvalidWeightError, NodeNotFoundError
from repro.graph.graph import Node
from repro.graph.shortest_paths import ShortestPathTree
from repro.obs import inc as _obs_inc, span as _obs_span

_INF = float("inf")


class CSRGraph:
    """A compiled, immutable CSR view of a graph.

    Attributes:
        nodes: interned node objects; ``nodes[i]`` is the node with index
            ``i`` (insertion order of the source graph).
        index: the inverse map ``node -> int``.
        indptr: ``array('q')`` of length ``n + 1``; the neighbors of node
            ``i`` occupy ``indices[indptr[i]:indptr[i+1]]``.
        indices: ``array('q')`` of neighbor indices (each undirected edge
            appears twice, once per endpoint).
        weights: ``array('d')`` of edge weights, parallel to ``indices``.
        epoch: optional caller-supplied version tag (e.g. the
            :class:`~repro.network.sdn.SDNetwork` epoch the source graph
            was derived at); purely informational.
    """

    __slots__ = ("nodes", "index", "indptr", "indices", "weights", "epoch", "_engine")

    def __init__(
        self,
        nodes: List[Node],
        index: Dict[Node, int],
        indptr: "array[int]",
        indices: "array[int]",
        weights: "array[float]",
        epoch: Optional[int] = None,
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.epoch = epoch
        self._engine: Optional[_CSRDijkstra] = None

    @property
    def num_nodes(self) -> int:
        """The number of interned nodes."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """The number of undirected edges."""
        return len(self.indices) // 2

    def engine(self) -> "_CSRDijkstra":
        """Return the (lazily created) shared search engine for this view.

        The engine owns the reusable workspace arrays; sharing it across
        calls is what makes :func:`dijkstra_many` allocation-free per
        source.  Searches are sequential throughout this codebase, so a
        single engine per view suffices.
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = _CSRDijkstra(self)
        return engine

    def adjacency(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node adjacency as tuples of ``(neighbor index, weight)``.

        This is the engine's own pre-paired layout (one tuple per node, in
        ``neighbor_items()`` order), shared — not copied — so flat solver
        cores can walk the topology without re-deriving it from
        ``indptr``/``indices``.  Treat it as read-only.
        """
        return self.engine()._adj

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
        indptr = array("q", [0])
        indices = array("q")
        weights = array("d")
        for node in nodes:
            for neighbor, weight in graph.neighbor_items(node):
                if not 0.0 <= weight < _INF:  # also rejects NaN
                    raise InvalidWeightError(node, neighbor, weight)
                indices.append(index[neighbor])
                weights.append(weight)
            indptr.append(len(indices))
        return CSRGraph(
            nodes=nodes,
            index=index,
            indptr=indptr,
            indices=indices,
            weights=weights,
            epoch=epoch,
        )


class _CSRDijkstra:
    """Reusable single-source Dijkstra engine over one compiled view.

    Owns a flat workspace sized once at construction and restored after
    every run, so a batch of searches allocates nothing per source beyond
    the result dicts.  Workspace invariants between runs:

    - ``_dist[i] == inf`` — the not-yet-improved sentinel (see the module
      docstring; this is what replaces the dict engine's settled check);
    - ``_pos[i] == -1`` — node ``i`` is not in the heap.  During a run,
      ``_pos`` is only meaningful for queued nodes: a settled node's slot
      goes stale rather than being written back, because nothing reads it
      (a settled node can never win the relaxation comparison).

    The adjacency is held as one tuple of ``(neighbor, weight)`` pairs per
    node — iterating pre-paired tuples beats ``indptr`` range walks with
    double indexing, and plain Python lists/tuples index faster from the
    interpreter loop than ``array('q')``/``array('d')``, which re-box every
    element on read.
    """

    __slots__ = (
        "_nodes",
        "_index",
        "_adj",
        "_dist",
        "_pos",
        "_dist_template",
        "_pos_template",
        "_hprio",
        "_hkey",
    )

    def __init__(self, csr: CSRGraph) -> None:
        indptr = list(csr.indptr)
        indices = list(csr.indices)
        weights = list(csr.weights)
        n = len(csr.nodes)
        self._nodes: List[Node] = list(csr.nodes)
        self._index: Dict[Node, int] = csr.index
        self._adj: List[Tuple[Tuple[int, float], ...]] = [
            tuple(zip(indices[indptr[i] : indptr[i + 1]],
                      weights[indptr[i] : indptr[i + 1]]))
            for i in range(n)
        ]
        self._dist: List[float] = [_INF] * n
        self._pos: List[int] = [-1] * n
        # Pristine copies for the O(n) slice-assignment reset (a C-level
        # copy, cheaper than a Python loop once most nodes were touched).
        self._dist_template: List[float] = [_INF] * n
        self._pos_template: List[int] = [-1] * n
        self._hprio: List[float] = []
        self._hkey: List[int] = []

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
        self, targets: Optional[Set[Node]] = None
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
        """
        try:
            source_idx = self._index[source]
        except KeyError:
            raise NodeNotFoundError(source) from None
        _obs_inc("csr.dijkstra.calls")
        if resolved is None:
            return self._run_full(source_idx, source)
        return self._run_targeted(source_idx, source, set(resolved))

    # ------------------------------------------------------------------
    # core search loops (inlined heap — these loops are the whole point)
    # ------------------------------------------------------------------
    def _run_full(self, source_idx: int, source: Node) -> ShortestPathTree:
        """Settle the whole component of ``source`` and decode the tree.

        The flat binary heap below replicates ``IndexedHeap`` operation for
        operation — see the module docstring for why tie order matters.
        The result dicts are built *during* the search (``distance`` at
        settle time, ``parent`` at first-improvement time), which lands
        them in the dict engine's exact insertion order for free.
        """
        dist = self._dist
        pos = self._pos
        adj = self._adj
        nodes = self._nodes
        hprio = self._hprio
        hkey = self._hkey
        hprio_pop = hprio.pop
        hkey_pop = hkey.pop
        hprio_push = hprio.append
        hkey_push = hkey.append

        distance: Dict[Node, float] = {}
        parent_map: Dict[Node, Optional[Node]] = {nodes[source_idx]: None}
        dist[source_idx] = 0.0
        pos[source_idx] = 0
        hprio_push(0.0)
        hkey_push(source_idx)

        while hprio:
            # -- pop the minimum (IndexedHeap.pop) -----------------------
            node = hkey[0]
            node_dist = hprio[0]
            last_prio = hprio_pop()
            last_key = hkey_pop()
            node_name = nodes[node]
            distance[node_name] = node_dist
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
            # -- relax neighbors ----------------------------------------
            for neighbor, weight in adj[node]:
                # The sum is recomputed on accept: most relaxations reject,
                # and comparing inline keeps that majority path one local
                # store shorter (same operands, bit-identical result).
                if node_dist + weight < dist[neighbor]:
                    candidate = node_dist + weight
                    dist[neighbor] = candidate
                    parent_map[nodes[neighbor]] = node_name
                    hole = pos[neighbor]
                    if hole < 0:
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
        dist[:] = self._dist_template
        pos[:] = self._pos_template
        return ShortestPathTree(
            source=source, distance=distance, parent=parent_map
        )

    def _run_targeted(
        self, source_idx: int, source: Node, pending: Set[int]
    ) -> ShortestPathTree:
        """Settle from ``source`` until every index in ``pending`` popped.

        Same loop as :meth:`_run_full` plus the per-pop pending check and a
        ``pushed`` log so the early exit can restore only the touched
        workspace slots (an exhausted search may still be cheaper to reset
        by slice, but targeted runs typically touch a small fraction).
        """
        dist = self._dist
        pos = self._pos
        adj = self._adj
        nodes = self._nodes
        hprio = self._hprio
        hkey = self._hkey
        hprio_pop = hprio.pop
        hkey_pop = hkey.pop
        hprio_push = hprio.append
        hkey_push = hkey.append

        distance: Dict[Node, float] = {}
        parent_map: Dict[Node, Optional[Node]] = {nodes[source_idx]: None}
        pushed: List[int] = [source_idx]
        pushed_append = pushed.append
        dist[source_idx] = 0.0
        pos[source_idx] = 0
        hprio_push(0.0)
        hkey_push(source_idx)

        while hprio:
            node = hkey[0]
            node_dist = hprio[0]
            last_prio = hprio_pop()
            last_key = hkey_pop()
            node_name = nodes[node]
            distance[node_name] = node_dist
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
            pending.discard(node)
            if not pending:
                break
            for neighbor, weight in adj[node]:
                # Same inline-compare-then-recompute as _run_full.
                if node_dist + weight < dist[neighbor]:
                    candidate = node_dist + weight
                    dist[neighbor] = candidate
                    parent_map[nodes[neighbor]] = node_name
                    hole = pos[neighbor]
                    if hole < 0:
                        pushed_append(neighbor)
                        hole = len(hprio)
                        hprio_push(candidate)
                        hkey_push(neighbor)
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
        for touched in pushed:
            dist[touched] = _INF
            pos[touched] = -1
        # An early exit leaves entries in the heap; settling to exhaustion
        # leaves none, so the clear is a no-op there.
        if hprio:
            del hprio[:]
            del hkey[:]
        return ShortestPathTree(
            source=source, distance=distance, parent=parent_map
        )


def dijkstra_csr(
    csr: CSRGraph, source: Node, targets: Optional[Set[Node]] = None
) -> ShortestPathTree:
    """Single-source Dijkstra over a compiled view (bit-identical decode).

    Drop-in equivalent of :func:`repro.graph.shortest_paths.dijkstra` on
    the source graph — identical distances, parents, and dict insertion
    orders.  Reuses the view's shared engine, so consecutive calls on the
    same view allocate no workspace.
    """
    return csr.engine().run(source, targets)


def dijkstra_many(
    csr: CSRGraph,
    sources: Sequence[Node],
    targets: Optional[Set[Node]] = None,
) -> Dict[Node, ShortestPathTree]:
    """Batched Dijkstra sweep: one tree per source over a shared workspace.

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


def csr_tree_edges(tree: ShortestPathTree) -> Iterable[Tuple[Node, Node]]:
    """Parent edges ``(parent, child)`` of a decoded tree (convenience)."""
    return (
        (parent, child)
        for child, parent in tree.parent.items()
        if parent is not None
    )
