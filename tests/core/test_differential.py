"""Differential harness: the cached engine against two independent oracles.

The cross-request shortest-path cache and the memoized combination
evaluator rewrote the hot path of ``Appro_Multi``.  This module pins the
rewrite to the seed behaviour over a bank of seeded random instances:

1. **Engine identity** — ``appro_multi`` (cached) returns a tree of exactly
   the cost of ``appro_multi_reference`` (the seed engine: explicit scaled
   topology copy, fresh Dijkstra per origin, every combination evaluated
   from scratch), and both reject exactly the same infeasible instances.
2. **Construction identity** — per combination, on one cached context,
   the CSR-native evaluator's solution equals the reference
   ``evaluate_combination``'s **bitwise** (tree with the same dict
   insertion order, the same float cost), and its cost equals KMB run on
   the *explicitly built* auxiliary graph, the slow construction the paper
   defines.
3. **Approximation bound** — on 13 fixed seeds and on hypothesis-drawn
   instances small enough for the exact Dreyfus–Wagner oracle, the
   returned cost is within twice the auxiliary-graph optimum, which
   implies the paper's ``2K`` factor (Theorem 1).
4. **Sequence identity** — over request sequences that commit their
   allocations: ``appro_multi_cap`` matches the seed search
   (``_search_reference``) on the same pruned residual graph; the flat
   ``Online_CP`` matches its dict-graph reference decide
   (``OnlineCPReference``, trees from the dict ``dijkstra`` oracle) on a
   twin network, over churn with departures, congestion that triggers
   every reject reason and both skips of the bounded candidate sweep,
   links that fail and recover between arrivals, and topologies where
   every unit cost is equal; and
   the ``Online_CP_K`` admission series matches a run whose every
   shortest-path tree comes from the dict ``dijkstra`` oracle instead of
   the CSR kernel.

Every instance derives from an explicit seed, so a failure names the exact
graph that broke and is replayable in isolation.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.common import build_real_network, make_requests
from repro.core import (
    VIRTUAL_SOURCE,
    CSRCombinationEvaluator,
    OnlineCP,
    OnlineCPK,
    OnlineCPReference,
    RejectReason,
    appro_multi,
    appro_multi_cap,
    appro_multi_detailed,
    appro_multi_reference,
    build_context,
    evaluate_combination,
    explicit_auxiliary_graph,
    iter_combinations,
    optimal_auxiliary_cost,
    try_allocate,
)
from repro.core.appro_multi import _search_reference
from repro.exceptions import InfeasibleRequestError
from repro.graph import (
    Graph,
    dijkstra,
    kmb_steiner_tree,
    spcache,
    steiner_tree_cost,
)
from repro.network import build_sdn
from repro.topology import waxman_graph
from repro.workload import generate_workload

#: Instance bank: enough seeds that tie-breaking, pruning, and memoization
#: paths are all exercised, small enough graphs that the run stays quick.
SEEDS = range(50)


def make_instance(seed, nodes=16):
    """One seeded (network, request) pair on a Waxman topology."""
    graph, _ = waxman_graph(nodes, alpha=0.5, beta=0.5, seed=seed)
    network = build_sdn(graph, seed=seed, server_fraction=0.3)
    request = generate_workload(
        graph, count=1, dmax_ratio=0.25, seed=seed + 10_000
    )[0]
    return network, request


def cached_context(network, request):
    """The cache-backed context ``appro_multi`` builds for ``request``."""
    chain_cost = {
        v: network.chain_cost(v, request.compute_demand)
        for v in network.server_nodes
    }
    return build_context(
        graph=network.graph,
        source=request.source,
        destinations=sorted(request.destinations, key=repr),
        servers=network.server_nodes,
        chain_cost=chain_cost,
        bandwidth=request.bandwidth,
        cache=network.path_cache(),
    )


class TestEngineIdentity:
    """Cached engine ≡ seed engine: same cost, same feasibility verdicts.

    Costs are compared at ``rel=1e-12``, not bitwise: the cache scales each
    Dijkstra *sum* by ``b_k`` once, while the seed engine sums pre-scaled
    weights — the same paths, associativity apart.  A genuine regression
    (wrong path, stale cache, missed combination) shifts the cost by whole
    edge weights, many orders of magnitude above the tolerance.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_cost_as_reference(self, seed):
        network, request = make_instance(seed)
        try:
            expected = appro_multi_reference(network, request, max_servers=2)
        except InfeasibleRequestError:
            with pytest.raises(InfeasibleRequestError):
                appro_multi(network, request, max_servers=2)
            return
        actual = appro_multi(network, request, max_servers=2)
        assert actual.total_cost == pytest.approx(
            expected.total_cost, rel=1e-12
        )
        assert actual.servers == expected.servers
        assert actual.distribution_edges == expected.distribution_edges
        assert actual.server_paths == expected.server_paths

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_same_cost_at_other_budgets(self, seed):
        network, request = make_instance(seed)
        for k in (1, 3):
            try:
                expected = appro_multi_reference(
                    network, request, max_servers=k
                )
            except InfeasibleRequestError:
                with pytest.raises(InfeasibleRequestError):
                    appro_multi(network, request, max_servers=k)
                continue
            actual = appro_multi(network, request, max_servers=k)
            assert actual.total_cost == pytest.approx(
                expected.total_cost, rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(0, 50, 10))
    def test_detailed_combination_accounting_is_conserved(self, seed):
        """The stronger prune may shift combinations from 'evaluated' to
        'pruned', but every combination is still accounted exactly once."""
        network, request = make_instance(seed)
        try:
            ctx = cached_context(network, request)
            detailed = appro_multi_detailed(network, request, max_servers=2)
        except InfeasibleRequestError:
            return
        total = sum(1 for _ in iter_combinations(ctx.candidate_servers, 2))
        assert (
            detailed.combinations_evaluated + detailed.combinations_pruned
            == total
        )
        assert detailed.combinations_evaluated >= 1


def solution_bits(solution):
    """Every observable field of a subset solution, bitwise.

    The tree is captured as its full adjacency in iteration order, so dict
    insertion order is part of the fingerprint; the cost float is compared
    exactly.
    """
    if solution is None:
        return None
    tree = solution.tree
    return (
        solution.combination,
        solution.used_servers,
        solution.cost,
        tuple(
            (node, tuple(tree.neighbor_items(node))) for node in tree.nodes()
        ),
    )


class TestConstructionIdentity:
    """CSR evaluator ≡ reference evaluator ≡ KMB on the explicit graph."""

    @pytest.mark.parametrize("seed", range(0, 50, 2))
    def test_per_combination_costs_match_explicit_graph(self, seed):
        network, request = make_instance(seed, nodes=14)
        try:
            ctx = cached_context(network, request)
        except InfeasibleRequestError:
            return
        evaluator = CSRCombinationEvaluator(ctx)
        terminals = [VIRTUAL_SOURCE] + list(ctx.destinations)
        for combination in iter_combinations(ctx.candidate_servers, 2):
            fast = evaluator.evaluate(combination)
            aux = explicit_auxiliary_graph(ctx, combination)
            try:
                reference = kmb_steiner_tree(aux, terminals)
            except Exception:
                assert fast is None
                continue
            assert fast is not None
            assert fast.cost == pytest.approx(
                steiner_tree_cost(reference), rel=1e-9
            )

    @pytest.mark.parametrize("seed", [*SEEDS, "geant-batch"])
    def test_per_combination_solutions_match_reference_evaluator(self, seed):
        """Same context, every combination up to K=3: identical bits.

        ``geant-batch`` is the first 40 requests of the benchmark's
        default-seed ``appro-geant-batch`` pass, where closure-MST shapes
        repeat, so there the shape memo must serve some solutions.
        """
        if seed == "geant-batch":
            network = build_real_network("GEANT", 0)
            requests = make_requests(network.graph, 40, 0.2, 20170605 + 1)
            instances = [(network, request) for request in requests]
        else:
            instances = [make_instance(seed)]
        obs.enable()
        before = obs.counters()
        for network, request in instances:
            try:
                ctx = cached_context(network, request)
            except InfeasibleRequestError:
                continue
            evaluator = CSRCombinationEvaluator(ctx)
            for combination in iter_combinations(ctx.candidate_servers, 3):
                assert solution_bits(
                    evaluator.evaluate(combination)
                ) == solution_bits(evaluate_combination(ctx, combination))
        if seed == "geant-batch":
            counters = obs.counters_since(before)
            assert counters.get("fasteval.shape_memo_hits", 0) > 0


def appro_multi_cap_reference(network, request, max_servers):
    """``Appro_Multi_Cap`` through the seed engine on the same residual graph.

    Rebuilds the pruned graph ``appro_multi_cap`` reads, constructs the
    context the reference way (explicit ``c_e · b_k`` copy, one fresh dict
    Dijkstra per origin) and runs the seed search loop, which evaluates
    every combination with ``evaluate_combination``.
    """
    eligible = network.feasible_servers(request.compute_demand)
    if not eligible:
        raise InfeasibleRequestError("no server can host the chain")
    ctx = build_context(
        graph=network.residual_graph(request.bandwidth),
        source=request.source,
        destinations=sorted(request.destinations, key=repr),
        servers=eligible,
        chain_cost={
            v: network.chain_cost(v, request.compute_demand)
            for v in eligible
        },
        bandwidth=request.bandwidth,
    )
    return _search_reference(ctx, request, max_servers).tree


def serve_trees_from_dict_dijkstra(patch):
    """Make every ``ShortestPathCache`` tree come from dict ``dijkstra``.

    The cache calls ``compile_csr``, ``dijkstra_csr`` and ``dijkstra_many``
    through its module globals.  The substitutes remember which graph each
    compiled view was built from and run the dict engine on that graph;
    the compiled view itself stays real, because the flat evaluator reads
    its node indexing.  Returns a one-element call counter, so a test can
    check that the oracle really served the run.
    """
    compile_csr = spcache.compile_csr
    # id(view) -> (view, graph); holding the view keeps its id unique.
    built_from = {}
    calls = [0]

    def compile_and_remember(graph, epoch=None):
        csr = compile_csr(graph, epoch=epoch)
        built_from[id(csr)] = (csr, graph)
        return csr

    def oracle(csr, origin):
        calls[0] += 1
        return dijkstra(built_from[id(csr)][1], origin)

    def oracle_many(csr, origins):
        return {origin: oracle(csr, origin) for origin in origins}

    patch.setattr(spcache, "compile_csr", compile_and_remember)
    patch.setattr(spcache, "dijkstra_csr", oracle)
    patch.setattr(spcache, "dijkstra_many", oracle_many)
    return calls


def tree_bits(tree):
    """Every observable field of a pseudo-tree, bitwise.

    ``server_paths`` is captured as an item tuple so dict insertion order
    is part of the fingerprint; the two cost floats are compared exactly.
    """
    return (
        tree.servers,
        tuple(tree.server_paths.items()),
        tree.distribution_edges,
        tree.return_paths,
        tree.bandwidth_cost,
        tree.compute_cost,
    )


class TestBackendIdentity:
    """Production engine ≡ the oracles, over request *sequences*.

    Sequences matter: each admitted request mutates residual capacities,
    so later requests exercise the epoch-keyed residual/weighted caches
    and the flat workspaces rebuilt per epoch.  A single diverging
    tie-break anywhere would cascade into different trees, different
    allocations, and a different admission series — exactly what these
    comparisons would catch.

    The class name dates from the dict/CSR engine switch, which is gone:
    the oracle side is now substituted inside each test.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_appro_multi_cap_sequence_bit_identical(self, seed):
        """Structure exact; costs at ``rel=1e-12`` (see TestEngineIdentity)."""
        network, request_seq = self._instance(seed)
        for request in request_seq:
            try:
                expected = appro_multi_cap_reference(
                    network, request, max_servers=2
                )
            except InfeasibleRequestError:
                with pytest.raises(InfeasibleRequestError):
                    appro_multi_cap(network, request, max_servers=2)
                continue
            tree = appro_multi_cap(network, request, max_servers=2)
            assert tree.servers == expected.servers
            assert tuple(tree.server_paths.items()) == tuple(
                expected.server_paths.items()
            )
            assert tree.distribution_edges == expected.distribution_edges
            assert tree.return_paths == expected.return_paths
            assert tree.bandwidth_cost == pytest.approx(
                expected.bandwidth_cost, rel=1e-12
            )
            assert tree.compute_cost == pytest.approx(
                expected.compute_cost, rel=1e-12
            )
            # commit the allocation so later requests see the depleted
            # residuals (and a bumped network epoch)
            try_allocate(network, tree)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ["cp", "cp-n24", "cpk", "cp-fail"])
    def test_online_admission_series_bit_identical(
        self, seed, kind, monkeypatch
    ):
        if kind in TWIN_SIZES:
            production, oracle, _ = online_cp_twin_series(
                seed, TWIN_SIZES[kind], failures=kind == "cp-fail"
            )
            assert len(production) >= 80
            assert production == oracle
            return

        def series():
            network, request_seq = self._instance(seed)
            algorithm = OnlineCPK(network, max_servers=2)
            out = []
            for request in request_seq:
                decision = algorithm.process(request)
                out.append((
                    decision.admitted,
                    decision.reason,
                    None if decision.tree is None
                    else tree_bits(decision.tree),
                ))
            return out

        production = series()
        with monkeypatch.context() as patch:
            calls = serve_trees_from_dict_dijkstra(patch)
            oracle = series()
        assert calls[0] > 0
        assert production == oracle

    def test_online_cp_twins_meet_every_reject_reason(self):
        """The congested twins exercise every reason ``Online_CP`` gives.

        ``TABLE_CAPACITY`` is the controller's, never the algorithm's.
        """
        seen = set()
        for seed in SEEDS:
            series = online_cp_twin_series(seed, TWIN_SIZES["cp"])[0]
            seen.update(entry[1] for entry in series)
        assert seen >= set(RejectReason) - {RejectReason.TABLE_CAPACITY}

    def test_online_cp_twins_meet_both_skips(self):
        """The 24-node twins skip servers by both bounds of the sweep.

        Without skips the differential above would pass with bounds that
        never fire; with them it shows that skipping changes no decision.
        """
        skipped = Counter()
        for seed in SEEDS:
            skipped.update(online_cp_twin_series(seed, TWIN_SIZES["cp-n24"])[2])
        assert skipped["online_cp.pruned.bound"] > 0
        assert skipped["online_cp.pruned.sigma_e"] > 0

    @staticmethod
    def _instance(seed):
        """A fresh network plus a short request sequence for one seed."""
        graph, _ = waxman_graph(16, alpha=0.5, beta=0.5, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=0.3)
        request_seq = generate_workload(
            graph, count=5, dmax_ratio=0.25, seed=seed + 10_000
        )
        return network, request_seq


#: Twin-run stream length, and the chance of a departure before each
#: arrival (repeated, so bursts of departures happen too).
TWIN_REQUESTS = 80
TWIN_DEPARTURE_CHANCE = 0.3
#: With failures, the chance before each arrival that a random link fails,
#: and that a random failed link recovers.
TWIN_FAILURE_CHANCE = 0.25
TWIN_RECOVERY_CHANCE = 0.3
#: Twin network size per ``Online_CP`` kind of the series test.
TWIN_SIZES = {"cp": 16, "cp-n24": 24, "cp-fail": 16}


def congested_twin(seed, nodes):
    """A small, congested network for one seed, plus its request stream.

    Link and server capacities are a fraction of the defaults, so the
    stream meets every reject reason; every odd seed sets all link unit
    costs equal, which makes the idle prices and the Dijkstra searches
    tie everywhere.  Calling this twice yields twin networks.
    """
    graph, _ = waxman_graph(nodes, alpha=0.5, beta=0.5, seed=seed)
    if seed % 2:
        graph = Graph.from_edges((u, v, 1.0) for u, v, _ in graph.edges())
    network = build_sdn(
        graph,
        seed=seed,
        server_fraction=0.3,
        bandwidth_range=(300.0, 1_500.0),
        compute_range=(100.0, 600.0),
    )
    request_seq = generate_workload(
        graph, count=TWIN_REQUESTS, dmax_ratio=0.25, seed=seed + 10_000
    )
    return network, request_seq


def departing_series(algorithm, request_seq, seed, failures=False):
    """Decide ``request_seq`` with seeded random departures in between.

    Records every decision bitwise: verdict, reason, selection weight and
    the admitted pseudo-tree.  The departures depend only on the seed and
    the decisions so far, so twins depart alike until they diverge.  With
    ``failures``, random links also fail and recover before arrivals; a
    booking on a failed link stays until its request departs.
    """
    rng = random.Random(seed)
    network = algorithm.network
    edges = [edge[:2] for edge in network.graph.edges()]
    active = []
    out = []
    for request in request_seq:
        while active and rng.random() < TWIN_DEPARTURE_CHANCE:
            algorithm.depart(active.pop(rng.randrange(len(active))))
        if failures and rng.random() < TWIN_FAILURE_CHANCE:
            network.fail_link(*rng.choice(edges))
        if failures and rng.random() < TWIN_RECOVERY_CHANCE:
            down = network.failed_links()
            if down:
                network.recover_link(*rng.choice(down))
        decision = algorithm.process(request)
        if decision.admitted:
            active.append(request.request_id)
        out.append((
            decision.admitted,
            decision.reason,
            decision.selection_weight,
            None if decision.tree is None else tree_bits(decision.tree),
        ))
    return out


@functools.lru_cache(maxsize=None)
def online_cp_twin_series(seed, nodes, failures=False):
    """``(flat series, reference series, flat counters)`` on twin networks.

    The reference decides on dict graphs with every shortest-path tree
    served by the dict ``dijkstra`` oracle.  The counters are the obs
    deltas of the flat run.  ``failures`` is :func:`departing_series`'s.
    """
    network, request_seq = congested_twin(seed, nodes)
    was_enabled = obs.enabled()
    obs.enable()
    before = obs.counters()
    try:
        production = departing_series(
            OnlineCP(network), request_seq, seed, failures
        )
        counters = obs.counters_since(before)
    finally:
        if not was_enabled:
            obs.disable()
    with pytest.MonkeyPatch.context() as patch:
        calls = serve_trees_from_dict_dijkstra(patch)
        twin, _ = congested_twin(seed, nodes)
        oracle = departing_series(
            OnlineCPReference(twin), request_seq, seed, failures
        )
    assert calls[0] > 0
    return production, oracle, counters


class TestApproximationBound:
    """KMB per combination is a 2-approximation, so cost(Appro_Multi) ≤
    2 · min_i OPT(G_k^i): stronger than Theorem 1's 2K bound against the
    true optimum."""

    @pytest.mark.parametrize("seed", range(0, 50, 4))
    def test_within_2k_of_exact_optimum(self, seed):
        # Fixed-seed anchors for the property below; the 2x bound they
        # assert implies 2K for every K >= 1.
        k = 2
        network, request = make_instance(seed, nodes=12)
        try:
            tree = appro_multi(network, request, max_servers=k)
        except InfeasibleRequestError:
            return
        exact_cost, _ = optimal_auxiliary_cost(
            network, request, max_servers=k
        )
        assert tree.total_cost <= 2 * exact_cost + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        nodes=st.integers(8, 14),
        server_fraction=st.sampled_from([0.2, 0.3, 0.5]),
        dmax_ratio=st.sampled_from([0.25, 0.5]),
        k=st.sampled_from([1, 2, 3]),
    )
    def test_within_2x_of_exact_auxiliary_optimum(
        self, seed, nodes, server_fraction, dmax_ratio, k
    ):
        graph, _ = waxman_graph(nodes, alpha=0.5, beta=0.5, seed=seed)
        network = build_sdn(graph, seed=seed, server_fraction=server_fraction)
        request = generate_workload(
            graph, count=1, dmax_ratio=dmax_ratio, seed=seed + 10_000
        )[0]
        # core/exact.py's size limits
        assert len(network.server_nodes) <= 8
        assert len(request.destinations) <= 7
        try:
            tree = appro_multi(network, request, max_servers=k)
        except InfeasibleRequestError:
            return
        exact_cost, _ = optimal_auxiliary_cost(
            network, request, max_servers=k
        )
        assert tree.total_cost <= 2 * exact_cost + 1e-6
