"""Drivers that replay request workloads offline against solvers.

Two run shapes cover the paper's offline figures:

- :func:`run_offline` — independent single-request solves on a fixed
  network (Figs. 5 and 6: the uncapacitated cost/runtime comparisons).
- :func:`run_sequential_capacitated` — single-request solves that *commit*
  their resources before the next request arrives (Fig. 7:
  ``Appro_Multi_Cap`` under load).

Online runs (Figs. 8 and 9, churn, failures, generated streams) go
through :class:`repro.stream.engine.StreamEngine`.
"""

from __future__ import annotations

# The drivers read time.perf_counter() to *report* per-request solver
# runtime as a figure metric (Figs. 5/6 running-time panels); the value is
# never a control input, so determinism is unaffected.
# repro-lint: disable-file=RL007

import time
from typing import Callable, Optional, Sequence

from repro.core.admission import try_allocate
from repro.core.pseudo_tree import PseudoMulticastTree
from repro.exceptions import InfeasibleRequestError
from repro.network.controller import Controller, TableCapacityExceededError
from repro.network.sdn import SDNetwork
from repro.obs import (
    DEFAULT_COST_BOUNDS as _COST_BOUNDS,
    counters as _obs_counters,
    counters_since as _obs_counters_since,
    enabled as _obs_enabled,
    hist as _obs_hist,
    inc as _obs_inc,
    request_scope as _obs_request,
    span as _obs_span,
)
from repro.simulation.metrics import OfflineRunStats
from repro.workload.request import MulticastRequest

OfflineSolver = Callable[[SDNetwork, MulticastRequest], PseudoMulticastTree]


def run_offline(
    solver: OfflineSolver,
    network: SDNetwork,
    requests: Sequence[MulticastRequest],
) -> OfflineRunStats:
    """Solve each request independently (no resource state carries over).

    Matches Figs. 5 and 6, which average the cost and running time of
    admitting each request on an otherwise idle network.
    """
    stats = OfflineRunStats()
    observing = _obs_enabled()
    before = _obs_counters() if observing else None
    with _obs_span("run_offline"):
        for request in requests:
            _obs_inc("engine.requests")
            with _obs_request(request.request_id):
                started = time.perf_counter()
                try:
                    tree = solver(network, request)
                except InfeasibleRequestError:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    continue
                finally:
                    elapsed = time.perf_counter() - started
            stats.solved += 1
            _obs_inc("engine.solved")
            if observing:
                _obs_hist("engine.admission_seconds", elapsed)
                _obs_hist("engine.tree_cost", tree.total_cost, _COST_BOUNDS)
            stats.runtimes.append(elapsed)
            stats.costs.append(tree.total_cost)
            stats.servers_used.append(tree.num_servers)
    stats.telemetry = _obs_counters_since(before)
    return stats


def run_sequential_capacitated(
    solver: OfflineSolver,
    network: SDNetwork,
    requests: Sequence[MulticastRequest],
    controller: Optional[Controller] = None,
) -> OfflineRunStats:
    """Admit requests one after another, committing resources (Fig. 7).

    Each solved tree's bandwidth and compute are reserved before the next
    request is considered; a request whose tree cannot be reserved (or for
    which the pruned network is infeasible) counts as infeasible.
    """
    stats = OfflineRunStats()
    observing = _obs_enabled()
    before = _obs_counters() if observing else None
    with _obs_span("run_sequential_capacitated"):
        for request in requests:
            _obs_inc("engine.requests")
            with _obs_request(request.request_id):
                started = time.perf_counter()
                try:
                    tree = solver(network, request)
                except InfeasibleRequestError:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    stats.runtimes.append(time.perf_counter() - started)
                    continue
                elapsed = time.perf_counter() - started
                transaction = try_allocate(network, tree)
                if transaction is None:
                    stats.infeasible += 1
                    _obs_inc("engine.infeasible")
                    stats.runtimes.append(elapsed)
                    continue
                if controller is not None:
                    try:
                        controller.install_tree(
                            request.request_id, tree.routing_hops(),
                            list(tree.servers),
                        )
                    except TableCapacityExceededError:
                        transaction.release_all()
                        stats.infeasible += 1
                        _obs_inc("engine.infeasible")
                        stats.runtimes.append(elapsed)
                        continue
            stats.solved += 1
            _obs_inc("engine.solved")
            if observing:
                _obs_hist("engine.admission_seconds", elapsed)
                _obs_hist("engine.tree_cost", tree.total_cost, _COST_BOUNDS)
            stats.runtimes.append(elapsed)
            stats.costs.append(tree.total_cost)
            stats.servers_used.append(tree.num_servers)
    stats.telemetry = _obs_counters_since(before)
    return stats
