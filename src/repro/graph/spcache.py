"""A versioned shortest-path cache with lazily scaled views.

Every ``Appro_Multi`` invocation needs one Dijkstra tree per terminal and
candidate server on a graph whose weights are the link unit costs multiplied
by the request bandwidth ``b_k``.  Because that scaling is *uniform*, the
shortest paths are identical to those of the unit-cost graph and only the
distances change — by exactly the factor ``b_k``.  This module exploits that:

- :class:`ShortestPathCache` computes each Dijkstra tree **once** on the
  unit-cost graph and memoizes it by origin, so trees are shared across
  server combinations, across requests, and across experiment trials on the
  same topology.
- :meth:`ShortestPathCache.scaled_tree` wraps a cached tree in a
  :class:`ScaledTree` whose distances are multiplied by ``b_k`` lazily, at
  lookup time — no per-request graph copies, no re-run searches.
- :class:`ScaledGraphView` is the matching read-only view of the graph with
  all weights multiplied by the same factor, for callers that need edge
  weights (auxiliary-graph expansion) rather than distances.

Residual and congestion-priced graphs are *not* uniform rescalings — they
change whenever resources are allocated or released.  For those,
:class:`VersionedCacheRegistry` keys each cache on an explicit version
number (the :class:`~repro.network.sdn.SDNetwork` *epoch* counter, bumped on
every residual mutation), so ``Appro_Multi_Cap`` and the online algorithms
read cached trees only while the underlying graph is provably unchanged.

Cache misses run the flat CSR kernel of :mod:`repro.graph.csr`, which is
bit-identical to the dict engine.  Each cache compiles its bound graph
once — and since caches are epoch-keyed, that is once per epoch — then
serves every miss from the compiled view; :meth:`ShortestPathCache.warm`
batch-fills a set of origins through :func:`~repro.graph.csr.dijkstra_many`
over the same view.  A cache may also sit on a compiled view with no dict
``Graph`` behind it (the per-request priced graph of ``Online_CP``); its
flat consumers then read kernel rows through
:meth:`ShortestPathCache.flat_tree`.

Invariants (see docs/API.md for the full contract):

1. *Uniform-scaling*: for factor ``f > 0``, ``scaled_tree(o, f).distance[t]
   == f * tree(o).distance[t]`` and the realizing paths are identical.
2. *Epoch-keying*: a registry entry built at version ``e`` is never served
   at any version ``!= e``; mutating the network invalidates every derived
   cache at once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import GraphError
from repro.graph.csr import (
    CSRGraph,
    compile_csr,
    dijkstra_csr,
    dijkstra_many,
    dijkstra_rows,
)
from repro.graph.graph import Graph, Node
from repro.graph.shortest_paths import ShortestPathTree
from repro.obs import inc as _obs_inc, span as _obs_span

_FLAT_INF = float("inf")


class ScaledDistances(Mapping):
    """Read-only mapping view multiplying every value by a fixed factor.

    Behaves like ``{node: base[node] * factor}`` without materializing it;
    missing nodes stay missing (an unreachable node is unreachable at every
    scale).
    """

    __slots__ = ("_base", "_factor")

    def __init__(self, base: Dict[Node, float], factor: float) -> None:
        self._base = base
        self._factor = factor

    def __getitem__(self, node: Node) -> float:
        return self._base[node] * self._factor

    def get(
        self, node: Node, default: Optional[float] = None
    ) -> Optional[float]:
        value = self._base.get(node)
        if value is None:
            return default
        return value * self._factor

    def __contains__(self, node: object) -> bool:
        return node in self._base

    def __iter__(self) -> Iterator[Node]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)


class ScaledTree:
    """A :class:`ShortestPathTree` view with distances scaled by ``factor``.

    The parent structure (and therefore every path) is shared with the
    underlying unit-cost tree: uniform scaling preserves shortest paths.
    """

    __slots__ = ("_tree", "_factor", "distance")

    def __init__(self, tree: ShortestPathTree, factor: float) -> None:
        self._tree = tree
        self._factor = factor
        #: Lazily scaled distance mapping (mirrors ``ShortestPathTree``).
        self.distance = ScaledDistances(tree.distance, factor)

    @property
    def source(self) -> Node:
        """The Dijkstra origin."""
        return self._tree.source

    @property
    def factor(self) -> float:
        """The uniform weight multiplier."""
        return self._factor

    @property
    def parent(self) -> Dict[Node, Optional[Node]]:
        """Predecessor map, identical to the unit-cost tree's."""
        return self._tree.parent

    @property
    def base(self) -> ShortestPathTree:
        """The underlying unit-cost tree."""
        return self._tree

    def reaches(self, node: Node) -> bool:
        """Return whether ``node`` is reachable from the origin."""
        return self._tree.reaches(node)

    def path_to(self, target: Node) -> List[Node]:
        """Return the (scale-invariant) node path origin → ``target``."""
        return self._tree.path_to(target)


class ScaledGraphView:
    """Read-only view of a graph with every weight multiplied by ``factor``.

    Supports the query surface the solvers use (``weight``, ``has_edge``,
    iteration); :meth:`copy` materializes an ordinary mutable
    :class:`Graph` for callers that need to edit (the explicit
    auxiliary-graph construction).
    """

    __slots__ = ("_graph", "_factor")

    def __init__(self, graph: Graph, factor: float) -> None:
        self._graph = graph
        self._factor = factor

    @property
    def base(self) -> Graph:
        """The unscaled graph."""
        return self._graph

    @property
    def factor(self) -> float:
        """The uniform weight multiplier."""
        return self._factor

    def weight(self, u: Node, v: Node) -> float:
        """Return the scaled weight of edge ``(u, v)``."""
        return self._graph.weight(u, v) * self._factor

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the edge exists (scale-independent)."""
        return self._graph.has_edge(u, v)

    def has_node(self, node: Node) -> bool:
        """Return whether the node exists (scale-independent)."""
        return self._graph.has_node(node)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return self._graph.nodes()

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over ``(u, v, scaled weight)`` triples."""
        factor = self._factor
        for u, v, w in self._graph.edges():
            yield u, v, w * factor

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        return self._graph.neighbors(node)

    def neighbor_items(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate over ``(neighbor, scaled weight)`` pairs."""
        factor = self._factor
        for neighbor, w in self._graph.neighbor_items(node):
            yield neighbor, w * factor

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        return self._graph.degree(node)

    @property
    def num_nodes(self) -> int:
        """The number of nodes."""
        return self._graph.num_nodes

    @property
    def num_edges(self) -> int:
        """The number of edges."""
        return self._graph.num_edges

    def total_weight(self) -> float:
        """Return the scaled total edge weight."""
        return self._graph.total_weight() * self._factor

    def copy(self) -> Graph:
        """Materialize the scaled view as a standalone mutable graph."""
        scaled = Graph()
        for node in self._graph.nodes():
            scaled.add_node(node)
        factor = self._factor
        for u, v, w in self._graph.edges():
            scaled.add_edge(u, v, w * factor)
        return scaled

    def __contains__(self, node: Node) -> bool:
        return self._graph.has_node(node)

    def __repr__(self) -> str:
        return (
            f"ScaledGraphView({self._graph!r}, factor={self._factor:g})"
        )


class ShortestPathCache:
    """Memoized single-source Dijkstra trees over one fixed graph.

    The cache assumes the bound graph is **immutable for its lifetime**:
    callers that derive graphs from mutable state (residual capacities,
    congestion prices) must key the cache on a version counter via
    :class:`VersionedCacheRegistry` and build a fresh cache per version.

    The mapping protocol (``cache[origin]``, ``origin in cache``) makes the
    cache a drop-in replacement for the ``Dict[Node, ShortestPathTree]``
    that :func:`~repro.graph.steiner.kmb_steiner_tree_cached` consumes —
    with trees computed on demand and remembered.
    """

    __slots__ = ("_graph", "_trees", "_csr", "_epoch", "_flat", "hits", "misses")

    def __init__(
        self,
        graph: Optional[Graph] = None,
        epoch: Optional[int] = None,
        compiled: Optional[CSRGraph] = None,
    ) -> None:
        if graph is None and compiled is None:
            raise ValueError("ShortestPathCache needs a graph or a compiled view")
        self._graph = graph
        self._trees: Dict[Node, ShortestPathTree] = {}
        # Compiled CSR view of the (immutable-for-our-lifetime) graph,
        # built lazily on the first miss unless one was handed in.  Because
        # the cache is epoch-keyed via VersionedCacheRegistry, this is
        # exactly "compile once per epoch".
        self._csr = compiled
        # Stamped onto the compiled view so consumers can audit which
        # network version a flat workspace was derived at.
        self._epoch = epoch
        # Index-space rows of full searches (see flat_tree).
        self._flat: Dict[Node, Tuple[List[float], List[int]]] = {}
        #: Served-from-memory lookup count (observability / benchmarks).
        self.hits = 0
        #: Computed-on-demand lookup count.
        self.misses = 0

    @property
    def graph(self) -> Graph:
        """The graph the cached trees were computed on.

        Raises:
            GraphError: if the cache sits on a compiled view alone.
        """
        graph = self._graph
        if graph is None:
            raise GraphError(
                "this cache sits on a compiled view with no dict Graph"
            )
        return graph

    @property
    def epoch(self) -> Optional[int]:
        """The version tag the cache (and its CSR view) was built at."""
        return self._epoch

    def _compiled(self) -> CSRGraph:
        """Return the CSR view of the bound graph, compiling it once."""
        csr = self._csr
        if csr is None:
            csr = self._csr = compile_csr(self.graph, epoch=self._epoch)
        return csr

    def compiled(self) -> CSRGraph:
        """The cache's single epoch-stamped CSR compilation of its graph.

        This is the one-compilation-per-request invariant's anchor: every
        flat consumer of the topology (the CSR-native ``Appro_Multi`` core,
        batched metric closures, warm sweeps) must share this view rather
        than calling :func:`~repro.graph.csr.compile_csr` itself.
        """
        return self._compiled()

    def flat_tree(
        self, origin: Node, targets: Optional[Set[Node]] = None
    ) -> Tuple[List[float], List[int]]:
        """Index-space view of :meth:`tree`: ``(distance row, parent row)``.

        Both rows are indexed by the compiled view's node indices:
        ``distance[i]`` is the distance to node ``i`` (``inf`` when
        unreachable) and ``parent[i]`` the predecessor index (``-1`` for
        the origin and unreachable nodes).  A miss returns the kernel's
        rows directly (:func:`~repro.graph.csr.dijkstra_rows`); an origin
        whose dict tree is already cached is projected from that tree, so
        flat and dict consumers can never disagree.  Full rows are
        memoized per origin; like :meth:`tree`, every lookup counts as a
        hit or, when it runs a search, a miss.

        With ``targets`` the search may stop once every target has
        settled: the rows are then exact at the targets (and every other
        settled node) only, and are returned without being memoized, so a
        later full lookup never reads them.  A memoized full row serves a
        targeted lookup as it is.
        """
        cached = self._flat.get(origin)
        if cached is not None:
            self.hits += 1
            _obs_inc("spcache.hits")
            return cached
        if origin in self._trees:
            rows = _tree_rows(self._compiled(), self.tree(origin))
        else:
            self.misses += 1
            _obs_inc("spcache.misses")
            with _obs_span("dijkstra"):
                rows = dijkstra_rows(self._compiled(), origin, targets)
            if targets is not None:
                return rows
        self._flat[origin] = rows
        return rows

    def tree(self, origin: Node) -> ShortestPathTree:
        """Return the Dijkstra tree rooted at ``origin`` (cached).

        A miss runs :func:`~repro.graph.csr.dijkstra_csr` over the cache's
        compiled view.
        """
        cached = self._trees.get(origin)
        if cached is not None:
            self.hits += 1
            _obs_inc("spcache.hits")
            return cached
        self.misses += 1
        _obs_inc("spcache.misses")
        with _obs_span("dijkstra"):
            tree = dijkstra_csr(self._compiled(), origin)
        self._trees[origin] = tree
        return tree

    def warm(self, origins: Iterable[Node]) -> None:
        """Pre-fill the cache with full trees for every origin in one sweep.

        The misses run as one :func:`~repro.graph.csr.dijkstra_many` batch
        over the shared compiled view.  The cached trees are the ones
        :meth:`tree` would have computed lazily — warming only moves the
        work, it never changes a result.  Already-cached origins are
        skipped without touching the hit/miss counters (warming is not a
        lookup).
        """
        missing = [o for o in dict.fromkeys(origins) if o not in self._trees]
        if not missing:
            return
        with _obs_span("dijkstra"):
            self._trees.update(dijkstra_many(self._compiled(), missing))
        self.misses += len(missing)
        _obs_inc("spcache.misses", len(missing))

    def scaled_tree(
        self, origin: Node, factor: float
    ) -> Union[ShortestPathTree, ScaledTree]:
        """Return the tree at ``origin`` with distances scaled by ``factor``.

        A factor of exactly 1.0 returns the unscaled tree itself.
        """
        tree = self.tree(origin)
        if factor == 1.0:
            return tree
        return ScaledTree(tree, factor)

    def scaled_view(self, factor: float) -> Union[Graph, ScaledGraphView]:
        """Return the bound graph with weights scaled by ``factor``."""
        if factor == 1.0:
            return self.graph
        return ScaledGraphView(self.graph, factor)

    def clear(self) -> None:
        """Drop every cached tree (keeps the graph binding)."""
        self._trees.clear()
        self._flat.clear()

    # -- mapping protocol (kmb_steiner_tree_cached compatibility) -------
    def __getitem__(self, origin: Node) -> ShortestPathTree:
        return self.tree(origin)

    def __contains__(self, origin: object) -> bool:
        graph = self._graph
        if graph is None:
            return origin in self._compiled().index
        return graph.has_node(origin)

    def __len__(self) -> int:
        return len(self._trees)

    def __repr__(self) -> str:
        return (
            f"ShortestPathCache(origins={len(self._trees)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _tree_rows(
    csr: CSRGraph, tree: ShortestPathTree
) -> Tuple[List[float], List[int]]:
    """Project a decoded tree onto ``csr``'s index space."""
    index = csr.index
    size = len(csr.nodes)
    dist_row: List[float] = [_FLAT_INF] * size
    parent_row: List[int] = [-1] * size
    for node, value in tree.distance.items():
        dist_row[index[node]] = value
    for node, predecessor in tree.parent.items():
        if predecessor is not None:
            parent_row[index[node]] = index[predecessor]
    return dist_row, parent_row


class VersionedCacheRegistry:
    """LRU registry of :class:`ShortestPathCache` keyed by ``(key, version)``.

    ``SDNetwork`` owns one registry and uses its *epoch* counter as the
    version: any allocation, release, restore, or reset bumps the epoch, so
    caches built on derived graphs (residual subgraphs, congestion-priced
    graphs) can never be served stale.  A small LRU bound keeps memory flat
    when bandwidths vary per request.
    """

    __slots__ = ("_entries", "_maxsize", "evictions", "invalidations")

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._entries: "OrderedDict[Tuple[Hashable, int], ShortestPathCache]"
        self._entries = OrderedDict()
        self._maxsize = maxsize
        #: Number of entries dropped by the LRU bound (observability).
        self.evictions = 0
        #: Number of entries dropped because their epoch went stale.
        self.invalidations = 0

    def get(
        self,
        key: Hashable,
        version: int,
        builder: Callable[[], Graph],
    ) -> ShortestPathCache:
        """Return the cache for ``(key, version)``, building it on a miss.

        ``builder`` is only invoked on a miss; stale versions of the same
        key are dropped eagerly (they can never be valid again).
        """
        entry_key = (key, version)
        cache = self._entries.get(entry_key)
        if cache is not None:
            self._entries.move_to_end(entry_key)
            _obs_inc("spregistry.hits")
            return cache
        _obs_inc("spregistry.misses")
        # Any entry for this key at another version is unreachable forever.
        stale = [k for k in self._entries if k[0] == key and k[1] != version]
        if stale:
            self.invalidations += len(stale)
            _obs_inc("spregistry.invalidations", len(stale))
        for k in stale:
            del self._entries[k]
        with _obs_span("cache_build"):
            cache = ShortestPathCache(builder(), epoch=version)
        self._entries[entry_key] = cache
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            _obs_inc("spregistry.evictions")
        return cache

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"VersionedCacheRegistry(entries={len(self._entries)}, "
            f"maxsize={self._maxsize})"
        )
