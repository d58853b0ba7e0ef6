"""Exact reference solvers for small instances.

The paper's guarantees are relative to optima nobody can compute at scale,
but on small instances we can: this module enumerates server combinations
and solves each auxiliary graph *exactly* with the Dreyfus–Wagner dynamic
program.  Two quantities fall out:

- :func:`optimal_auxiliary_cost` — ``min_i OPT(G_k^i)``, the tightest bound
  the reduction itself allows.  ``Appro_Multi``'s tree must cost at most
  twice this value (per-combination KMB is a 2-approximation), which in turn
  is at most ``2K`` times the true pseudo-multicast optimum (Theorem 1's
  compression argument) — so the test suite checks the stronger ``2×``
  inequality.
- :func:`optimal_single_server_cost` — for ``K = 1`` the true optimum
  decomposes cleanly into (shortest source→server path) + (chain cost) +
  (exact Steiner tree over ``{v} ∪ D_k``); used to validate the online
  algorithm's building blocks and the ``Alg_One_Server`` baseline.

Complexity is exponential in ``|D_k|`` (Dreyfus–Wagner) and in ``K``
(combinations), so keep instances tiny: ``|D_k| ≤ 7``, ``|V_S| ≤ 8``.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from repro.core.auxiliary import (
    VIRTUAL_SOURCE,
    build_context,
    explicit_auxiliary_graph,
    iter_combinations,
)
from repro.exceptions import InfeasibleRequestError
from repro.graph.exact_steiner import dreyfus_wagner
from repro.graph.shortest_paths import dijkstra
from repro.network.sdn import SDNetwork
from repro.workload.request import MulticastRequest

Node = Hashable


def optimal_auxiliary_cost(
    network: SDNetwork,
    request: MulticastRequest,
    max_servers: int,
) -> Tuple[float, Tuple[Node, ...]]:
    """Return ``(min_i OPT(G_k^i), best combination)`` by exact search.

    Raises:
        InfeasibleRequestError: if no combination connects the terminals.
        ValueError: if the instance is too large to solve exactly.
    """
    if len(request.destinations) > 7:
        raise ValueError(
            f"{len(request.destinations)} destinations is too many for the "
            "exact reference solver"
        )
    servers = network.server_nodes
    if len(servers) > 10:
        raise ValueError(
            f"{len(servers)} servers is too many for exhaustive combinations"
        )
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
    terminals = [VIRTUAL_SOURCE] + list(ctx.destinations)
    best_cost: Optional[float] = None
    best_combination: Tuple[Node, ...] = ()
    for combination in iter_combinations(ctx.candidate_servers, max_servers):
        # exact oracle: the materialized G_k^i is the point of this solver
        aux = explicit_auxiliary_graph(ctx, combination)
        cost, _ = dreyfus_wagner(aux, terminals)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_combination = tuple(combination)
    if best_cost is None:
        raise InfeasibleRequestError(
            f"request {request.request_id}: no feasible combination"
        )
    return best_cost, best_combination


def optimal_single_server_cost(
    network: SDNetwork, request: MulticastRequest
) -> Tuple[float, Node]:
    """Exact optimum for ``K = 1``: best (route + chain + Steiner) split.

    Returns ``(cost, server)``.

    Raises:
        InfeasibleRequestError: if no server can serve the request.
    """
    if len(request.destinations) > 7:
        raise ValueError(
            f"{len(request.destinations)} destinations is too many for the "
            "exact reference solver"
        )
    from repro.core.auxiliary import scale_graph

    scaled = scale_graph(network.graph, request.bandwidth)
    # Exact reference oracle: fresh search on the materialized scaled copy,
    # deliberately independent of the production cache it helps validate.
    # repro-lint: disable=RL001
    source_tree = dijkstra(scaled, request.source)
    destinations = sorted(request.destinations, key=repr)
    best: Optional[Tuple[float, Node]] = None
    for server in network.server_nodes:
        if not source_tree.reaches(server):
            continue
        route = source_tree.distance[server]
        chain = network.chain_cost(server, request.compute_demand)
        steiner_cost, _ = dreyfus_wagner(scaled, [server] + destinations)
        total = route + chain + steiner_cost
        if best is None or total < best[0]:
            best = (total, server)
    if best is None:
        raise InfeasibleRequestError(
            f"request {request.request_id}: no reachable server"
        )
    return best
