"""``Appro_Multi`` — the paper's 2K-approximation (Algorithm 1).

Given an NFV-enabled multicast request ``r_k = (s_k, D_k; b_k, SC_k)`` and a
budget of at most ``K`` servers for the service chain, the algorithm:

1. enumerates every server combination ``V_S^i`` of size 1 … K;
2. builds the auxiliary graph ``G_k^i`` (virtual source wired to the
   combination's servers; see :mod:`repro.core.auxiliary`);
3. finds a KMB Steiner tree spanning ``{s'_k} ∪ D_k`` in each ``G_k^i``;
4. returns the cheapest tree over all combinations as a pseudo-multicast
   tree.

Theorem 1 guarantees the result costs at most ``2K`` times the optimal
pseudo-multicast tree.  The capacitated variant ``Appro_Multi_Cap``
(Section IV-C) runs the same search on the residual network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.auxiliary import (
    VIRTUAL_SOURCE,
    AuxiliaryContext,
    SubsetSolution,
    build_context,
    evaluate_combination,
    iter_combinations,
)
from repro.core.fasteval import (
    _BOUND_MARGIN,
    AnySolution,
    CSRCombinationEvaluator,
)
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import InfeasibleRequestError
from repro.graph.shortest_paths import INFINITY
from repro.network.sdn import SDNetwork
from repro.obs import (
    inc as _obs_inc,
    span as _obs_span,
    trace_instant as _obs_instant,
)
from repro.workload.request import MulticastRequest

Node = Hashable

#: The paper's evaluation default (Section VI-A): at most 3 servers.
DEFAULT_MAX_SERVERS = 3


@dataclass(frozen=True)
class ApproMultiResult:
    """Outcome of one ``Appro_Multi`` invocation.

    Attributes:
        tree: the chosen pseudo-multicast tree.
        combinations_evaluated: how many server combinations were solved.
        combinations_pruned: combinations skipped by the lower-bound prune.
    """

    tree: PseudoMulticastTree
    combinations_evaluated: int
    combinations_pruned: int


def _solution_to_tree(
    ctx: AuxiliaryContext,
    solution: AnySolution,
    request: MulticastRequest,
) -> PseudoMulticastTree:
    """Convert a winning auxiliary-graph tree into a pseudo-multicast tree."""
    distribution = tuple(
        (u, v)
        for u, v, _ in solution.tree.edges()
        if u is not VIRTUAL_SOURCE and v is not VIRTUAL_SOURCE
    )
    server_paths = {
        server: tuple(ctx.path(ctx.source, server))
        for server in solution.used_servers
    }
    compute_cost = sum(ctx.chain_cost[v] for v in solution.used_servers)
    return PseudoMulticastTree(
        request=request,
        servers=solution.used_servers,
        server_paths=server_paths,
        distribution_edges=distribution,
        return_paths=(),
        bandwidth_cost=solution.cost - compute_cost,
        compute_cost=compute_cost,
    )


def _search(
    ctx: AuxiliaryContext,
    request: MulticastRequest,
    max_servers: int,
) -> ApproMultiResult:
    """Enumerate combinations and keep the cheapest KMB tree.

    Uses the memoized CSR-native evaluator
    (:class:`~repro.core.fasteval.CSRCombinationEvaluator`, which needs a
    cache-built context) in two passes: a cheap lower-bound pre-pass (no
    trees computed), then full evaluation in *ascending bound order* so the
    incumbent tightens as early as possible and prunes most full
    evaluations.  The result is exactly that of :func:`_search_reference`
    in every case, including cost ties: a combination is skipped only when
    its admissible bound exceeds the incumbent by more than the relative
    ``_BOUND_MARGIN`` (the bound sums distances in another order than the
    tree cost it bounds, so in floats it may sit a few ulps above that
    cost; beyond the margin the combination can neither beat nor tie the
    final answer), and among evaluated equal-cost solutions the one
    earliest in the reference enumeration order wins — the same
    lexicographic ``(cost, index)`` minimum the reference's
    first-strict-improvement loop selects.  Only the evaluated/pruned
    statistics may differ.
    """
    evaluator = CSRCombinationEvaluator(ctx)
    with _obs_span("enumerate"):
        combinations = list(
            iter_combinations(ctx.candidate_servers, max_servers)
        )
        bounds = [evaluator.lower_bound(c) for c in combinations]
        order = sorted(range(len(combinations)), key=bounds.__getitem__)

    best: Optional[AnySolution] = None
    best_index = -1
    limit = INFINITY
    evaluated = 0
    pruned = 0
    with _obs_span("evaluate"):
        for index in order:
            if bounds[index] > limit:
                # Everything later in the order is bounded even higher.
                pruned += len(combinations) - evaluated - pruned
                break
            solution = evaluator.evaluate(combinations[index])
            evaluated += 1
            if solution is None:
                continue
            if (
                best is None
                or solution.cost < best.cost
                # Exact equality is intentional: the lowest-index tie-break
                # must agree bit-for-bit with the seed engine; a tolerance
                # would merge genuinely distinct costs and change figures.
                # repro-lint: disable=RL004
                or (solution.cost == best.cost and index < best_index)
            ):
                best = solution
                best_index = index
                limit = best.cost + abs(best.cost) * _BOUND_MARGIN
    _obs_inc("appro_multi.combinations_evaluated", evaluated)
    _obs_inc("appro_multi.combinations_pruned", pruned)
    if best is None:
        raise InfeasibleRequestError(
            f"request {request.request_id}: no feasible pseudo-multicast tree"
        )
    return ApproMultiResult(
        tree=_solution_to_tree(ctx, best, request),
        combinations_evaluated=evaluated,
        combinations_pruned=pruned,
    )


def _search_reference(
    ctx: AuxiliaryContext,
    request: MulticastRequest,
    max_servers: int,
) -> ApproMultiResult:
    """The seed search loop, kept verbatim as the differential baseline."""
    best: Optional[SubsetSolution] = None
    evaluated = 0
    pruned = 0
    for combination in iter_combinations(ctx.candidate_servers, max_servers):
        # Lower bound: any tree for this combination contains at least one
        # virtual edge, so it cannot beat `best` if even the cheapest
        # virtual edge already does not.
        if best is not None:
            floor = min(ctx.virtual_weight[v] for v in combination)
            if floor >= best.cost:
                pruned += 1
                continue
        solution = evaluate_combination(ctx, combination)
        evaluated += 1
        if solution is None:
            continue
        if best is None or solution.cost < best.cost:
            best = solution
    if best is None:
        raise InfeasibleRequestError(
            f"request {request.request_id}: no feasible pseudo-multicast tree"
        )
    return ApproMultiResult(
        tree=_solution_to_tree(ctx, best, request),
        combinations_evaluated=evaluated,
        combinations_pruned=pruned,
    )


def appro_multi(
    network: SDNetwork,
    request: MulticastRequest,
    max_servers: int = DEFAULT_MAX_SERVERS,
) -> PseudoMulticastTree:
    """Solve the *uncapacitated* NFV-enabled multicasting problem.

    Args:
        network: the SDN (only its topology, unit costs, and server
            locations are read; capacities are ignored — Case 1 of the
            paper's problem definitions).
        request: the multicast request.
        max_servers: the paper's constant ``K ≥ 1``.

    Returns:
        A pseudo-multicast tree whose cost is within ``2K`` of optimal.

    Raises:
        InfeasibleRequestError: if the topology cannot connect the source,
            a server, and every destination.
    """
    return appro_multi_detailed(network, request, max_servers).tree


def appro_multi_detailed(
    network: SDNetwork,
    request: MulticastRequest,
    max_servers: int = DEFAULT_MAX_SERVERS,
) -> ApproMultiResult:
    """Like :func:`appro_multi` but also reports search statistics."""
    if max_servers < 1:
        raise ValueError(f"K must be >= 1, got {max_servers}")
    with _obs_span("appro_multi"):
        _obs_inc("appro_multi.invocations")
        servers = network.server_nodes
        chain_cost = {
            v: network.chain_cost(v, request.compute_demand) for v in servers
        }
        with _obs_span("aux_build"):
            ctx = build_context(
                graph=network.graph,
                source=request.source,
                destinations=sorted(request.destinations, key=repr),
                servers=servers,
                chain_cost=chain_cost,
                bandwidth=request.bandwidth,
                cache=network.path_cache(),
            )
        result = _search(ctx, request, max_servers)
        _obs_instant(
            "appro_multi.solved",
            servers=[str(s) for s in result.tree.servers],
            cost=result.tree.total_cost,
        )
        return result


def appro_multi_reference(
    network: SDNetwork,
    request: MulticastRequest,
    max_servers: int = DEFAULT_MAX_SERVERS,
) -> PseudoMulticastTree:
    """The seed ``Appro_Multi`` engine: no cache, no memoized evaluator.

    Builds an explicit ``c_e · b_k`` topology copy, runs one fresh Dijkstra
    per origin, and evaluates every combination from scratch.  Kept so the
    differential test harness and the micro-benchmark can hold the cached
    engine to the seed's exact behaviour.
    """
    if max_servers < 1:
        raise ValueError(f"K must be >= 1, got {max_servers}")
    servers = network.server_nodes
    chain_cost = {
        v: network.chain_cost(v, request.compute_demand) for v in servers
    }
    ctx = build_context(
        graph=network.graph,
        source=request.source,
        destinations=sorted(request.destinations, key=repr),
        servers=servers,
        chain_cost=chain_cost,
        bandwidth=request.bandwidth,
    )
    return _search_reference(ctx, request, max_servers).tree


def appro_multi_cap(
    network: SDNetwork,
    request: MulticastRequest,
    max_servers: int = DEFAULT_MAX_SERVERS,
) -> PseudoMulticastTree:
    """Solve the *capacitated* problem (``Appro_Multi_Cap``, Section IV-C).

    Builds ``G' = (V, E')`` keeping only links whose residual bandwidth is
    at least ``b_k`` and servers whose residual compute covers
    ``C_v(SC_k)``, then runs ``Appro_Multi`` on it.

    Raises:
        InfeasibleRequestError: if the pruned network has no component
            containing the source, at least one eligible server, and every
            destination — the paper's rejection condition.
    """
    if max_servers < 1:
        raise ValueError(f"K must be >= 1, got {max_servers}")
    with _obs_span("appro_multi_cap"):
        _obs_inc("appro_multi_cap.invocations")
        # The residual graph changes with every allocation, so the cache is
        # keyed on the network's epoch counter: a fresh epoch (or bandwidth
        # threshold) rebuilds the pruned topology and its Dijkstra trees.
        cache = network.residual_path_cache(min_bandwidth=request.bandwidth)
        eligible = network.feasible_servers(request.compute_demand)
        if not eligible:
            raise InfeasibleRequestError(
                f"request {request.request_id}: no server has "
                f"{request.compute_demand:.0f} MHz available"
            )
        chain_cost = {
            v: network.chain_cost(v, request.compute_demand) for v in eligible
        }
        with _obs_span("aux_build"):
            ctx = build_context(
                graph=cache.graph,
                source=request.source,
                destinations=sorted(request.destinations, key=repr),
                servers=eligible,
                chain_cost=chain_cost,
                bandwidth=request.bandwidth,
                cache=cache,
            )
        return _search(ctx, request, max_servers).tree
