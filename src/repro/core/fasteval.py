"""Memoized combination evaluation for ``Appro_Multi`` (cost-exact).

``Appro_Multi`` evaluates up to ``Σ_{j≤K} C(|V_S|, j)`` server combinations
per request, and :func:`~repro.core.auxiliary.evaluate_combination` spends
most of its time recomputing quantities that depend only on the *zero-server
set* ``Z = combination ∩ adjacent_servers`` — not on the combination itself:

- the destination–destination closure distances (and the case decomposition
  choosing them),
- the per-server modified-distance rows feeding the ``s'`` closure edges,
- the expanded real-graph paths realizing each closure edge.

Since ``K`` is small and only servers adjacent to the source produce zero
edges, the number of distinct zero sets is far smaller than the number of
combinations, so :class:`CSRCombinationEvaluator` memoizes all three by zero
set and replays :func:`~repro.core.auxiliary.evaluate_combination` from the
memos on flat integer arrays.  The replay runs the same float operations on
the same operands in the same order and replicates every tie-break of the
``prim_mst`` / ``kruskal_mst`` / ``prune_leaves`` pipeline (through the
index-space replicas in :mod:`repro.graph.steiner`, which ``Online_CP``'s
flat core shares), so its decoded
solution is **bit-for-bit identical** to the reference evaluator's, dict
insertion order included — the differential test harness holds this to
account on seeded instances.

Two more memos skip repeat work within a request: combinations with the
same zero set and winning servers share one solution (one Prim run), and
solutions whose closure MSTs have the same *shape* share one expansion,
Kruskal forest and leaf pruning (see ``CSRCombinationEvaluator._shapes``).

:meth:`CSRCombinationEvaluator.lower_bound` additionally exposes an
admissible bound — any tree for the combination contains, for every
destination ``y``, a path ``s' → y`` of weight at least the closure edge
``(s', y)`` — which the search uses to skip whole combinations without
touching an MST.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.auxiliary import (
    VIRTUAL_SOURCE,
    AuxiliaryContext,
    SubsetSolution,
    _CASE_DIRECT,
    _CASE_DOUBLE,
    _CASE_ENTRY,
    _CASE_EXIT,
)
from repro.exceptions import EdgeNotFoundError
from repro.graph.graph import Graph, Node
from repro.graph.shortest_paths import INFINITY
from repro.graph.steiner import (
    flat_edges,
    kruskal_forest,
    prim_closure,
    prune_leaves_flat,
)
from repro.obs import inc as _obs_inc, span as _obs_span

#: Sentinel returned by :meth:`CSRCombinationEvaluator.evaluate` when the
#: admissible lower bound already proves the combination cannot beat the
#: incumbent, so no tree was (or needed to be) computed.
PRUNED = object()


#: Relative margin of both combination prunes (``evaluate``'s
#: :data:`PRUNED` test and ``appro_multi._search``'s break).  A lower bound
#: adds up other distances in another order than the tree cost it bounds,
#: so it may sit a few ulps above that cost; 1e-9 is far above such
#: rounding.
_BOUND_MARGIN = 1e-9

#: Distinguishes "memoized None" from "not yet memoized" in flat memos.
_MISSING = object()


class _FlatTreeBox:
    """A pruned tree in index space, decoded into a dict ``Graph`` at most once.

    Shared by every :class:`CSRSubsetSolution` the solution memo hands out
    for the same underlying answer, so the winning tree is decoded a single
    time no matter how many combinations map onto it.
    """

    __slots__ = ("adj", "nodes", "virtual_index", "graph")

    def __init__(
        self,
        adj: Dict[int, Dict[int, float]],
        nodes: List[Node],
        virtual_index: int,
    ) -> None:
        self.adj = adj
        self.nodes = nodes
        self.virtual_index = virtual_index
        self.graph: Optional[Graph] = None

    def decode(self) -> Graph:
        """Replay the index-space adjacency into a :class:`Graph`.

        ``Graph.from_adjacency`` preserves node order and per-node neighbor
        order exactly, so the decoded tree matches ``evaluate_combination``'s
        **including dict insertion order** — the differential harness
        compares them field by field.
        """
        graph = self.graph
        if graph is None:
            nodes = self.nodes
            virtual = self.virtual_index
            mapping: Dict[Node, Dict[Node, float]] = {}
            for u, neighbors in self.adj.items():
                label = VIRTUAL_SOURCE if u == virtual else nodes[u]
                mapping[label] = {
                    (VIRTUAL_SOURCE if v == virtual else nodes[v]): w
                    for v, w in neighbors.items()
                }
            graph = self.graph = Graph.from_adjacency(mapping)
        return graph


#: A solved solution key: ``(used servers, cost, tree box)``.
_Answer = Tuple[Tuple[Node, ...], float, _FlatTreeBox]


class CSRSubsetSolution:
    """:class:`~repro.core.auxiliary.SubsetSolution` twin from the flat core.

    Same field surface (``combination``, ``used_servers``, ``cost``,
    ``tree``); the tree is decoded lazily — the combination sweep only pays
    the dict materialization for solutions a caller actually reads, i.e.
    the winner.
    """

    __slots__ = ("combination", "used_servers", "cost", "_box")

    def __init__(
        self,
        combination: Tuple[Node, ...],
        used_servers: Tuple[Node, ...],
        cost: float,
        box: _FlatTreeBox,
    ) -> None:
        self.combination = combination
        self.used_servers = used_servers
        self.cost = cost
        self._box = box

    @property
    def tree(self) -> Graph:
        """The pruned Steiner tree, decoded (and memoized) on first access."""
        return self._box.decode()

    def __repr__(self) -> str:
        return (
            f"CSRSubsetSolution(combination={self.combination!r}, "
            f"cost={self.cost!r})"
        )


class CSRCombinationEvaluator:
    """Flat-array replay of ``evaluate_combination`` (CSR-native core).

    Every arithmetic operation runs on the same operands in the same order
    as :func:`~repro.core.auxiliary.evaluate_combination` (unit Dijkstra
    rows are multiplied by ``b_k`` at each use site, exactly as
    ``ScaledDistances`` does), and every tie-break replicates the
    ``IndexedHeap`` / stable-sort / dict-insertion-order behaviour of its
    ``Graph`` pipeline.  The decoded winner is therefore bit-identical to
    the reference, dict insertion order included — the differential
    harness holds the two to that.

    The whole combination sweep shares one workspace: the substrate CSR
    arrays and Dijkstra rows come from the request's
    :class:`~repro.core.auxiliary.FlatContext`, the metric-closure weight
    matrix is allocated once per zero set, and only the virtual-source row
    (closure node 0) is rewritten per combination — the flat mirror of the
    :class:`~repro.core.auxiliary.AuxiliaryCSR` "one appended row" layout.
    """

    __slots__ = (
        "_ctx",
        "_flat",
        "_aux",
        "_factor",
        "_source",
        "_nodes",
        "_virtual",
        "_dests",
        "_ndest",
        "_dist_rows",
        "_parent_rows",
        "_vweight",
        "_closure_orders",
        "_protected",
        "_ids_memo",
        "_closures",
        "_vrows",
        "_paths",
        "_winner_memo",
        "_solutions",
        "_shapes",
    )

    def __init__(self, ctx: AuxiliaryContext) -> None:
        flat = ctx.flat
        if flat is None:
            raise ValueError(
                "context has no flat workspace; build it with a "
                "ShortestPathCache (build_context(..., cache=...))"
            )
        self._ctx = ctx
        self._flat = flat
        self._aux = flat.aux
        self._factor = flat.factor
        self._source = flat.source
        self._nodes = flat.nodes
        self._virtual = flat.aux.virtual_index
        dests = flat.destinations
        self._dests = dests
        m = len(dests)
        self._ndest = m
        # Closure-graph adjacency orders, precomputed once.  The reference
        # closure adds s' first, then the destinations, then the dest-pair
        # edges in i<j loop order, and the s' edges last — so with closure
        # ids 0=s' and i=destination i-1,
        # node 0's adjacency is (1..m) and node i's is (1..m without i, 0).
        orders: List[Tuple[int, ...]] = [tuple(range(1, m + 1))]
        for i in range(1, m + 1):
            orders.append(
                tuple(j for j in range(1, m + 1) if j != i) + (0,)
            )
        self._closure_orders = orders
        self._protected = frozenset((self._virtual,) + dests)
        self._dist_rows = flat.dist_rows
        self._parent_rows = flat.parent_rows
        self._vweight = flat.virtual_weight
        #: combination tuple → (member nodes, member ids, zero ids).
        self._ids_memo: Dict[Tuple[Node, ...], Tuple] = {}
        #: zero ids → (weight matrix, pair cases), or None if infeasible.
        self._closures: Dict[Tuple[int, ...], Optional[Tuple]] = {}
        #: ``(zero ids, server id)`` → per-destination modified distances.
        self._vrows: Dict[Tuple, Tuple] = {}
        #: ``(zero ids, a, b)`` → expanded ``(u, v, w)`` edges (index space).
        self._paths: Dict[Tuple, Tuple] = {}
        #: ``(zero ids, member ids)`` → (winner list, lower bound).
        self._winner_memo: Dict[Tuple, Tuple] = {}
        #: ``(zero ids, winner vector)`` → solved key (or None).
        self._solutions: Dict[Tuple, Optional[_Answer]] = {}
        #: closure-MST shape → solved key (or None).  The shape is the
        #: zero ids, the MST's ``(cu, cv)`` edges in ``flat_edges`` order
        #: and the winning server of each edge at ``s'``: the expansion
        #: ignores closure weights, a winner's case and path are functions
        #: of (zero, server, destination) and the pair cases and paths are
        #: memoized per zero set, so two keys with one shape expand to the
        #: same adjacency, dict insertion order included, and everything
        #: after the expansion reads only that adjacency.
        self._shapes: Dict[Tuple, Optional[_Answer]] = {}

    # ------------------------------------------------------------------
    # id projection
    # ------------------------------------------------------------------
    def _ids(
        self, combination: Sequence[Node]
    ) -> Tuple[Tuple[Node, ...], Tuple[int, ...], Tuple[int, ...]]:
        """Project a combination once: (member nodes, member ids, zero ids).

        Order-preserving, exactly like ``evaluate_combination``'s member
        and zero-server filters; memoized because ``lower_bound`` and ``evaluate``
        both see every combination.
        """
        key = tuple(combination)
        cached = self._ids_memo.get(key)
        if cached is None:
            virtual_weight = self._ctx.virtual_weight
            index = self._flat.index
            member_nodes = tuple(v for v in key if v in virtual_weight)
            members = tuple(index[v] for v in member_nodes)
            adjacent = self._flat.adjacent
            zero = tuple(v for v in members if v in adjacent)
            cached = (member_nodes, members, zero)
            self._ids_memo[key] = cached
        return cached

    # ------------------------------------------------------------------
    # memoized building blocks (flat replicas of the auxiliary helpers)
    # ------------------------------------------------------------------
    def _mod(
        self, zero: Tuple[int, ...], a: int, b: int
    ) -> Tuple[float, int, int, int]:
        """Replica of ``auxiliary._modified_distance`` on index rows.

        ``v1``/``v2`` use ``-1`` for "none".  Every comparison happens on
        *scaled* floats — the unit rows are multiplied by ``b_k`` at each
        use site, mirroring ``ScaledDistances`` — so case selection and
        argmin tie-breaks (first strict minimum, in ``zero`` order) agree
        with the reference bit for bit.
        """
        factor = self._factor
        rows = self._dist_rows
        dist_a = rows[a]
        dist_b = rows[b]
        best_dist = dist_a[b] * factor
        best = (best_dist, _CASE_DIRECT, -1, -1)
        if zero:
            source = self._source
            a_to_source = dist_a[source] * factor
            b_to_source = dist_b[source] * factor
            first = zero[0]
            exit_v = first
            exit_dist = dist_b[first] * factor
            entry_v = first
            entry_dist = dist_a[first] * factor
            for v in zero[1:]:
                d = dist_b[v] * factor
                if d < exit_dist:
                    exit_dist = d
                    exit_v = v
                d = dist_a[v] * factor
                if d < entry_dist:
                    entry_dist = d
                    entry_v = v
            d1 = a_to_source + exit_dist
            if d1 < best_dist:
                best_dist = d1
                best = (d1, _CASE_EXIT, -1, exit_v)
            d2 = entry_dist + b_to_source
            if d2 < best_dist:
                best_dist = d2
                best = (d2, _CASE_ENTRY, entry_v, -1)
            d3 = entry_dist + exit_dist
            if d3 < best_dist:
                best = (d3, _CASE_DOUBLE, entry_v, exit_v)
        return best

    def _closure(
        self, zero: Tuple[int, ...]
    ) -> Optional[Tuple[List[List[float]], Dict]]:
        """Dest–dest closure for a zero set: weight matrix + case table.

        ``matrix[i][j]`` (closure ids, row/column 0 reserved for ``s'``) is
        the modified distance between destinations ``i-1`` and ``j-1``;
        ``None`` marks an infeasible pair (the reference returns ``None``
        for the whole combination there).
        """
        cached = self._closures.get(zero, _MISSING)
        if cached is not _MISSING:
            return cached
        dests = self._dests
        m = self._ndest
        matrix: List[List[float]] = [
            [0.0] * (m + 1) for _ in range(m + 1)
        ]
        pair_cases: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        data: Optional[Tuple[List[List[float]], Dict]] = (matrix, pair_cases)
        mod = self._mod
        for i in range(m):
            a = dests[i]
            row = matrix[i + 1]
            for j in range(i + 1, m):
                dist, case, v1, v2 = mod(zero, a, dests[j])
                if dist == INFINITY:
                    data = None  # capacitated pruning disconnected a pair
                    break
                row[j + 1] = dist
                matrix[j + 1][i + 1] = dist
                pair_cases[(i + 1, j + 1)] = (case, v1, v2)
            if data is None:
                break
        self._closures[zero] = data
        return data

    def _vrow(self, zero: Tuple[int, ...], server: int) -> Tuple:
        """``server``'s modified distances to every destination (memoized).

        Returns ``(row, totals)``: the per-destination ``_mod`` entries and
        the precomputed ``virtual_weight + distance`` totals (same operands
        in the same order as ``evaluate_combination``'s
        ``virtual_weight[v] + dist``, just
        summed once per (zero, server) instead of per combination).
        """
        key = (zero, server)
        data = self._vrows.get(key)
        if data is None:
            mod = self._mod
            row = tuple(mod(zero, server, y) for y in self._dests)
            weight = self._vweight[server]
            totals = tuple(weight + entry[0] for entry in row)
            data = (row, totals)
            self._vrows[key] = data
        return data

    def _winners_for(
        self, zero: Tuple[int, ...], members: Tuple[int, ...]
    ) -> Tuple[Optional[List[Tuple]], float, Optional[Tuple[int, ...]]]:
        """Memoized :meth:`_winners` (lower_bound and evaluate share it).

        The enumeration visits combinations in lexicographic order, so a
        combination's ``(j-1)``-prefix is always memoized first.  When the
        appended member leaves the zero set unchanged (it is not an
        adjacent server), the full member scan reduces to an elementwise
        merge of the prefix winners with the new member's totals — the
        first-strict-minimum scan over ``prefix + (last,)`` is exactly
        "keep the prefix winner unless the last member is strictly
        cheaper", on the same floats.
        """
        key = (zero, members)
        cached = self._winner_memo.get(key)
        if cached is not None:
            return cached
        cached = None
        if len(members) > 1:
            last = members[-1]
            if last not in self._flat.adjacent:
                prev = self._winners_for(zero, members[:-1])
                prev_winners, _, prev_servers = prev
                if prev_winners is not None:
                    row, totals = self._vrow(zero, last)
                    winners: List[Tuple] = []
                    servers: List[int] = []
                    bound = 0.0
                    for index in range(self._ndest):
                        pw = prev_winners[index]
                        total = pw[0]
                        t = totals[index]
                        if t < total:
                            entry = row[index]
                            pw = (t, last, entry[1], entry[2], entry[3])
                            winners.append(pw)
                            servers.append(last)
                            total = t
                        else:
                            winners.append(pw)
                            servers.append(prev_servers[index])
                        if total > bound:
                            bound = total
                    cached = (winners, bound, tuple(servers))
        if cached is None:
            cached = self._winners(zero, members)
        self._winner_memo[key] = cached
        return cached

    def _winners(
        self, zero: Tuple[int, ...], members: Tuple[int, ...]
    ) -> Tuple[Optional[List[Tuple]], float, Optional[Tuple[int, ...]]]:
        """Cheapest ``s'`` closure edge per destination.

        Same strict-improvement scan in the same member order, on the same
        floats, as ``evaluate_combination``'s, so the winner vector matches
        the reference exactly; the admissible bound is the max winner
        total.  Also returns the
        winning-server vector, a cheap-to-hash stand-in for the winner
        vector in the solution memo: for a fixed zero set every winner
        field is a function of (server, destination), so keying on the
        servers alone induces exactly the same memo partition as keying on
        the full winner tuples.
        """
        vrow = self._vrow
        rows = [(v,) + vrow(zero, v) for v in members]
        winners: List[Tuple] = []
        servers: List[int] = []
        bound = 0.0
        for index in range(self._ndest):
            best_total = INFINITY
            best_v = -1
            best_row = None
            for v, row, totals in rows:
                total = totals[index]
                if total < best_total:
                    best_total = total
                    best_v = v
                    best_row = row
            if best_row is None or best_total == INFINITY:
                return None, INFINITY, None
            entry = best_row[index]
            winners.append(
                (best_total, best_v, entry[1], entry[2], entry[3])
            )
            servers.append(best_v)
            if best_total > bound:
                bound = best_total
        return winners, bound, tuple(servers)

    def _walk(self, origin: int, target: int) -> List[int]:
        """``ShortestPathTree.path_to`` replica on a parent-index row."""
        parent = self._parent_rows[origin]
        path = [target]
        node = parent[target]
        while node != -1:
            path.append(node)
            node = parent[node]
        path.reverse()
        return path

    def _path_edges(
        self,
        zero: Tuple[int, ...],
        a: int,
        b: int,
        case: int,
        v1: int,
        v2: int,
    ) -> Tuple:
        """Expanded ``(u, v, weight)`` edges for one closure edge (memoized).

        Path concatenation replicates ``auxiliary._modified_path`` per
        case (including the degenerate ``v1 == v2`` collapse); weights are
        the scaled substrate weights with the zero-edge override.
        """
        key = (zero, a, b)
        edges = self._paths.get(key)
        if edges is None:
            source = self._source
            if case == _CASE_DIRECT:
                path = self._walk(a, b)
            elif case == _CASE_EXIT:
                path = self._walk(a, source)
                path.extend(reversed(self._walk(b, v2)))
            elif case == _CASE_ENTRY:
                path = self._walk(a, v1)
                path.extend(reversed(self._walk(b, source)))
            else:  # _CASE_DOUBLE
                path = self._walk(a, v1)
                second = self._walk(b, v2)
                second.reverse()
                if v1 == v2:  # degenerate: both zero hops collapse
                    path.extend(second[1:])
                else:
                    path.append(source)
                    path.extend(second)
            zero_set = set(zero)
            factor = self._factor
            adjacency = self._aux.adjacency
            triples: List[Tuple[int, int, float]] = []
            for u, v in zip(path, path[1:]):
                if (u == source and v in zero_set) or (
                    v == source and u in zero_set
                ):
                    triples.append((u, v, 0.0))
                    continue
                for neighbor, unit in adjacency[u]:
                    if neighbor == v:
                        triples.append((u, v, unit * factor))
                        break
                else:  # pragma: no cover - paths only traverse real edges
                    nodes = self._nodes
                    raise EdgeNotFoundError(nodes[u], nodes[v])
            edges = tuple(triples)
            self._paths[key] = edges
        return edges

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def lower_bound(self, combination: Sequence[Node]) -> float:
        """Admissible cost lower bound for ``combination``.

        Returns :data:`~repro.graph.shortest_paths.INFINITY` when the
        combination is infeasible (evaluation would return ``None``).
        """
        _, members, zero = self._ids(combination)
        if not members:
            return INFINITY
        if self._closure(zero) is None:
            return INFINITY
        return self._winners_for(zero, members)[1]

    def evaluate(
        self, combination: Sequence[Node], bound: Optional[float] = None
    ):
        """Flat replay of ``evaluate_combination`` (bit-identical decode).

        ``None`` for infeasible combinations; :data:`PRUNED` when
        ``bound`` (the incumbent best cost) is given and the admissible
        lower bound exceeds it by more than the relative
        ``_BOUND_MARGIN`` (a bound may sit a few ulps above the cost it
        bounds, so only beyond the margin can the combination never
        replace the incumbent under the search's strict-improvement
        rule); otherwise a :class:`CSRSubsetSolution` whose decoded tree
        equals the reference's tree field for field.
        """
        member_nodes, members, zero = self._ids(combination)
        if not members:
            return None
        _obs_inc("fasteval.evaluations")

        closure_data = self._closure(zero)
        if closure_data is None:
            return None

        winners, lower, winner_servers = self._winners_for(zero, members)
        if bound is not None and lower > bound + abs(bound) * _BOUND_MARGIN:
            _obs_inc("fasteval.bound_pruned")
            return PRUNED
        if winners is None:
            return None

        # Keyed on the winning-server vector — same partition as a
        # winner-tuple key (see _winners), far cheaper to hash.
        memo_key = (zero, winner_servers)
        answer = self._solutions.get(memo_key, _MISSING)
        if answer is _MISSING:
            answer = self._solutions[memo_key] = self._kmb(
                members, zero, closure_data, winners, winner_servers
            )
        else:
            _obs_inc("fasteval.solution_memo_hits")
        if answer is None:
            return None
        used, cost, box = answer
        return CSRSubsetSolution(
            combination=member_nodes, used_servers=used, cost=cost, box=box
        )

    def _kmb(
        self,
        members: Tuple[int, ...],
        zero: Tuple[int, ...],
        closure_data: Tuple[List[List[float]], Dict],
        winners: List[Tuple],
        winner_servers: Tuple[int, ...],
    ) -> Optional[_Answer]:
        """KMB for one solution key: ``(used servers, cost, tree box)``.

        Prim runs on every key.  The rest of the pipeline — expansion,
        Kruskal, leaf pruning, the used-server sort and the cost sum —
        reads only the closure MST's *shape* and is memoized on it (see
        ``_shapes``).
        """
        # Only the virtual block varies across the sweep: select the
        # combination on the shared CSR auxiliary view, rewrite closure
        # row/column 0, and leave every other array untouched.
        self._aux.set_combination(members, zero)
        _obs_inc("fasteval.kmb_trees")
        with _obs_span("kmb"):
            matrix, pair_cases = closure_data
            row0 = matrix[0]
            for i, best in enumerate(winners):
                total = best[0]
                row0[i + 1] = total
                matrix[i + 1][0] = total

            tree_adj = prim_closure(matrix, self._closure_orders)
            links = [(cu, cv) for cu, cv, _ in flat_edges(tree_adj)]
            shape = (
                zero,
                tuple(links),
                tuple(
                    winner_servers[(cv if cu == 0 else cu) - 1]
                    for cu, cv in links
                    if cu == 0 or cv == 0
                ),
            )
            answer = self._shapes.get(shape, _MISSING)
            if answer is not _MISSING:
                _obs_inc("fasteval.shape_memo_hits")
                return answer

            # --- expansion, walking closure-tree edges in edges() order
            dests = self._dests
            virtual = self._virtual
            vweight = self._vweight
            exp: Dict[int, Dict[int, float]] = {}
            for cu, cv in links:
                if cu == 0 or cv == 0:
                    position = (cv if cu == 0 else cu) - 1
                    _, server, case, v1, v2 = winners[position]
                    row = exp.get(virtual)
                    if row is None:
                        row = exp[virtual] = {}
                    row[server] = vweight[server]
                    row = exp.get(server)
                    if row is None:
                        row = exp[server] = {}
                    row[virtual] = vweight[server]
                    path_edges = self._path_edges(
                        zero, server, dests[position], case, v1, v2
                    )
                else:
                    i, j = (cu, cv) if cu < cv else (cv, cu)
                    case, v1, v2 = pair_cases[(i, j)]
                    path_edges = self._path_edges(
                        zero, dests[i - 1], dests[j - 1], case, v1, v2
                    )
                for eu, ev, ew in path_edges:
                    row = exp.get(eu)
                    if row is None:
                        row = exp[eu] = {}
                    row[ev] = ew
                    row = exp.get(ev)
                    if row is None:
                        row = exp[ev] = {}
                    row[eu] = ew

            forest = kruskal_forest(exp)
            with _obs_span("prune"):
                # in place: ``forest`` is fresh, so prune_leaves' defensive
                # copy has nothing to protect
                pruned = prune_leaves_flat(forest, self._protected)

        answer = None
        virtual_row = pruned.get(self._virtual)
        if virtual_row:
            nodes = self._nodes
            used = tuple(sorted((nodes[v] for v in virtual_row), key=repr))
            # total_weight() replica: sum() over the weights in edges()
            # order (sum(), not a += loop: CPython 3.12's float sum() is
            # compensated).
            cost = sum([w for _, _, w in flat_edges(pruned)])
            answer = (used, cost, _FlatTreeBox(pruned, nodes, self._virtual))
        self._shapes[shape] = answer
        return answer


#: Either solution type — the reference ``SubsetSolution`` or the flat
#: core's ``CSRSubsetSolution``; same field surface, interchangeable
#: downstream.
AnySolution = Union[SubsetSolution, CSRSubsetSolution]
