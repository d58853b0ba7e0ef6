"""``Online_CP_K`` — online admission with multi-server chains (K > 1).

The paper proves its competitive ratio only for ``K = 1`` and leaves the
multi-server online case open (Section V states the single-server
assumption explicitly).  This module implements the natural extension the
paper's machinery suggests: per request, run the ``Appro_Multi`` combination
search *on the congestion-priced graph* — virtual-edge weights combine the
weighted distance to each server with the server's exponential weight
``w_v(k)`` — and admit through the same threshold policy.

For ``K = 1`` this closely tracks ``Online_CP`` (the candidate structures
differ only in how the source connects: a dedicated virtual edge versus
being a Steiner terminal with an LCA detour).  For ``K > 1`` it can split a
chain across servers when congestion makes a single placement expensive,
which is exactly the regime the offline algorithm exploits.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.admission import AdmissionPolicy
from repro.core.auxiliary import (
    VIRTUAL_SOURCE,
    build_context,
    iter_combinations,
)
from repro.core.cost_model import CostModel, ExponentialCostModel
from repro.core.fasteval import PRUNED, CSRCombinationEvaluator
from repro.core.online_base import OnlineAlgorithm, OnlineDecision, RejectReason
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import InfeasibleRequestError
from repro.graph.spcache import ShortestPathCache, VersionedCacheRegistry
from repro.network.sdn import SDNetwork
from repro.obs import inc as _obs_inc, span as _obs_span
from repro.workload.request import MulticastRequest

Node = Hashable


class OnlineCPK(OnlineAlgorithm):
    """Congestion-priced online admission with up to ``K`` servers.

    Args:
        network: the capacitated SDN.
        max_servers: the server budget ``K ≥ 1`` per request.
        cost_model: resource pricing (default: the paper's exponential
            model at ``α = β = 2|V|``).
        policy: admission thresholds (default ``σ = |V| − 1``).
    """

    def __init__(
        self,
        network: SDNetwork,
        max_servers: int = 2,
        cost_model: Optional[CostModel] = None,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        if max_servers < 1:
            raise ValueError(f"K must be >= 1, got {max_servers}")
        super().__init__(network)
        self._max_servers = max_servers
        self._model = cost_model or ExponentialCostModel.for_network(network)
        self._policy = policy or AdmissionPolicy.for_network(network)
        # Epoch-keyed cache of the congestion-priced graph and its Dijkstra
        # trees (see OnlineCP): valid until the next admission mutates
        # residual capacities.
        self._sp_registry = VersionedCacheRegistry()

    def _weighted_cache(self, request: MulticastRequest) -> ShortestPathCache:
        """Shortest-path cache on the congestion-priced graph for ``b_k``."""
        network = self._network
        return self._sp_registry.get(
            ("weighted", request.bandwidth),
            network.epoch,
            lambda: self._model.weight_graph(
                network, min_residual_bandwidth=request.bandwidth
            ),
        )

    @property
    def max_servers(self) -> int:
        """The per-request server budget ``K``."""
        return self._max_servers

    @property
    def cost_model(self) -> CostModel:
        """The resource pricing model in use."""
        return self._model

    def _decide(self, request: MulticastRequest) -> OnlineDecision:
        network = self._network
        demand = request.compute_demand
        eligible = [
            v
            for v in network.server_nodes
            if network.server(v).can_allocate(demand)
        ]
        if not eligible:
            return self._reject(request, RejectReason.NO_FEASIBLE_SERVER)

        admissible = [
            v
            for v in eligible
            if self._policy.server_admissible(
                self._model.node_weight(network, v)
            )
        ]
        if not admissible:
            return self._reject(request, RejectReason.SERVER_THRESHOLD)

        cache = self._weighted_cache(request)
        server_weight = {
            v: self._model.node_weight(network, v) for v in admissible
        }
        try:
            with _obs_span("aux_build"):
                ctx = build_context(
                    graph=cache.graph,
                    source=request.source,
                    destinations=sorted(request.destinations, key=repr),
                    servers=admissible,
                    chain_cost=server_weight,
                    bandwidth=1.0,  # weights are already congestion-priced
                    cache=cache,
                )
        except InfeasibleRequestError:
            return self._reject(request, RejectReason.DISCONNECTED)

        evaluator = CSRCombinationEvaluator(ctx)
        best = None
        with _obs_span("evaluate"):
            for combination in iter_combinations(
                ctx.candidate_servers, self._max_servers
            ):
                _obs_inc("online_cpk.combinations")
                bound = None
                if best is not None:
                    bound = best.cost
                    floor = min(
                        ctx.virtual_weight[v] for v in combination
                    )
                    if floor >= bound:
                        continue
                solution = evaluator.evaluate(combination, bound=bound)
                if solution is PRUNED or solution is None:
                    continue
                if best is None or solution.cost < best.cost:
                    best = solution
        if best is None:
            return self._reject(request, RejectReason.DISCONNECTED)

        # threshold check on the selected tree's *link* weight (the server
        # weights were pre-filtered per σ_v): subtract the virtual edges.
        server_part = sum(server_weight[v] for v in best.used_servers)
        physical_weight = best.cost - server_part
        if not self._policy.tree_admissible(physical_weight):
            return self._reject(request, RejectReason.TREE_THRESHOLD)

        tree = self._to_pseudo_tree(request, ctx, best)
        return self._admit(request, tree, best.cost)

    def _to_pseudo_tree(self, request, ctx, solution) -> PseudoMulticastTree:
        """Convert the weighted-graph solution into operational terms."""
        network = self._network
        distribution = tuple(
            (u, v)
            for u, v, _ in solution.tree.edges()
            if u is not VIRTUAL_SOURCE and v is not VIRTUAL_SOURCE
        )
        server_paths = {
            server: tuple(ctx.path(request.source, server))
            for server in solution.used_servers
        }
        # costs are not validated at construction, so a zero-cost shell is a
        # convenient way to reuse edge_usage() for the real accounting
        shell = PseudoMulticastTree(
            request=request,
            servers=solution.used_servers,
            server_paths=server_paths,
            distribution_edges=distribution,
            return_paths=(),
            bandwidth_cost=0.0,
            compute_cost=0.0,
        )
        bandwidth_cost = sum(
            count * request.bandwidth * network.link_unit_cost(u, v)
            for (u, v), count in shell.edge_usage().items()
        )
        compute_cost = sum(
            network.chain_cost(server, request.compute_demand)
            for server in solution.used_servers
        )
        return PseudoMulticastTree(
            request=request,
            servers=solution.used_servers,
            server_paths=server_paths,
            distribution_edges=distribution,
            return_paths=(),
            bandwidth_cost=bandwidth_cost,
            compute_cost=compute_cost,
        )
