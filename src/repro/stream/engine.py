"""StreamEngine: the one online event loop.

Every online run in this repository goes through :class:`StreamEngine`:
the figure replays (Figs. 8 and 9 and their ablations), the churn and
failure experiments, ``repro stream``, and generated million-request
streams.  The engine pulls arrivals from an
:class:`~repro.stream.workloads.ArrivalStream` (a materialized figure
list, a timed arrival/departure list, or a seeded generator) and folds
them through an online algorithm:

- departures are scheduled in a priority queue (``heapq``) keyed by
  ``(departure time, admission order)`` and drained before each arrival,
  so memory for pending departures is O(active requests), not O(stream);
- an optional failure schedule of
  :class:`~repro.resilience.events.FailureEvent` records is merged into
  the same drain in the resilience layer's order: at equal times,
  recoveries come before failures, failures before departures, and all
  of them before a coincident arrival.  A failure hands every installed
  request it breaks to a :class:`~repro.resilience.repair.RepairStrategy`,
  which repairs it or drops it;
- per-request statistics are *bounded*: counters, a fixed-bucket cost
  histogram, a ring of recent decisions, and a **chained SHA-256
  decision digest** that fingerprints the entire admission series in
  O(1) memory — two runs produced the same decisions, in the same
  order, with the same costs, iff their digests match;
- every arrival ticks an optional
  :class:`~repro.obs.emitter.SnapshotEmitter`, so delta telemetry
  streams out at the emitter's cadence;
- every ``checkpoint_every`` arrivals the engine invokes a checkpoint
  sink (see :mod:`repro.stream.checkpoint`) and samples its own RSS, so
  a long run leaves both a resume point and a memory-flatness series
  behind.

Simulated time comes from the stream, and the decision sequence is a
pure function of (network, algorithm, stream, failure schedule) — which
is what the checkpoint layer's bit-identity guarantee is built on.  The
engine reads no wall clock of its own.  A caller that reports decision
latency (the figure replays, plain ``repro stream``) passes ``clock``,
e.g. ``time.perf_counter``; its readings feed only the
``engine.admission_seconds`` histogram and :attr:`StreamEngine.
decision_seconds`, never a decision.  Generated-stream, shard and
checkpoint runs leave it unset, so their histograms compare bit for bit.
"""

from __future__ import annotations

import hashlib
import heapq
import os
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.online_base import (
    OnlineAlgorithm,
    OnlineDecision,
    RejectReason,
)
from repro.exceptions import SimulationError
from repro.network.controller import Controller, TableCapacityExceededError
from repro.obs import (
    DEFAULT_COST_BOUNDS as _COST_BOUNDS,
    enabled as _obs_enabled,
    hist as _obs_hist,
    inc as _obs_inc,
    request_scope as _obs_request,
    span as _obs_span,
    trace_instant as _obs_instant,
)
from repro.obs.emitter import SnapshotEmitter
from repro.obs.window import FixedBucketHistogram
from repro.resilience.events import FailureEvent, apply_event
from repro.resilience.impact import (
    affected_request_ids,
    check_residual_consistency,
    classify_impact,
)
from repro.resilience.repair import (
    ActiveRequest,
    DropAffected,
    RepairContext,
    RepairStrategy,
)
from repro.simulation.metrics import ResilienceRunStats
from repro.stream.workloads import Arrival, ArrivalStream

__all__ = ["StreamEngine", "StreamStats", "sample_rss_kb"]


def _install_admitted(
    algorithm: OnlineAlgorithm,
    controller: Controller,
    decision: OnlineDecision,
) -> None:
    """Program the data plane for an admitted decision.

    If the controller rejects the tree (flow-table capacity), the admission
    is *evicted*: resources are released and the decision is rewritten as a
    rejection, modelling control-plane admission control.
    """
    assert decision.tree is not None
    request = decision.request
    try:
        controller.install_tree(
            request.request_id,
            decision.tree.routing_hops(),
            list(decision.tree.servers),
        )
    except TableCapacityExceededError:
        algorithm.depart(request.request_id)
        decision.admitted = False
        decision.reason = RejectReason.TABLE_CAPACITY
        decision.tree = None
        decision.transaction = None


def _touches_failure(
    active: ActiveRequest, down_links: set, down_servers: set
) -> bool:
    """Whether a live tree uses any currently failed link or server."""
    if down_servers and any(s in down_servers for s in active.tree.servers):
        return True
    if not down_links:
        return False
    return any(key in down_links for key in active.tree.edge_usage())


def sample_rss_kb() -> float:
    """Current resident set size in KiB.

    Reads ``/proc/self/statm`` (instantaneous RSS, Linux); falls back to
    ``resource.getrusage`` peak RSS elsewhere.  Diagnostics only — never
    a control input.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, IndexError, ValueError):
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class StreamStats:
    """Bounded rolling statistics of a stream run.

    Everything here is O(1) in the stream length except ``rss_samples``
    (one entry per checkpoint/RSS window — hundreds of entries for a
    million-request run) and the fixed-size ``recent`` ring.

    The ``digest`` is a chained SHA-256 over the decision sequence:
    each decision rehashes ``digest || request_id || admitted || reason
    || cost``, so the final hex string commits to the entire admission
    series — order, outcomes, and exact float costs — in constant
    memory.  It is the equality witness of the checkpoint layer's
    resume-vs-straight-through differential and of the shard layer's
    worker-count invariance.
    """

    __slots__ = (
        "processed",
        "admitted",
        "rejected",
        "departed",
        "peak_active",
        "last_time",
        "digest",
        "rejections",
        "cost_histogram",
        "recent",
        "rss_samples",
    )

    RECENT_SIZE = 64

    def __init__(self) -> None:
        self.processed = 0
        self.admitted = 0
        self.rejected = 0
        self.departed = 0
        self.peak_active = 0
        self.last_time = 0.0
        self.digest = ""
        self.rejections: Dict[str, int] = {}
        self.cost_histogram = FixedBucketHistogram(_COST_BOUNDS)
        self.recent: Deque[Tuple[str, bool, Optional[str]]] = deque(
            maxlen=self.RECENT_SIZE
        )
        self.rss_samples: List[List[float]] = []

    @property
    def admission_ratio(self) -> float:
        """Admitted / processed (0 when nothing was processed)."""
        return self.admitted / self.processed if self.processed else 0.0

    def record_decision(
        self,
        request_id: Hashable,
        admitted: bool,
        reason: Optional[str],
        cost: Optional[float],
    ) -> None:
        """Fold one admission decision into the rolling aggregates."""
        self.processed += 1
        payload = (
            f"{self.digest}|{request_id!r}|{int(admitted)}|"
            f"{reason or ''}|{cost!r}"
        )
        self.digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self.recent.append((repr(request_id), admitted, reason))
        if admitted:
            self.admitted += 1
            assert cost is not None
            self.cost_histogram.observe(cost)
        else:
            self.rejected += 1
            if reason is not None:
                self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def sample_rss(self) -> None:
        """Append one ``[processed, rss_kb]`` point to the memory series."""
        self.rss_samples.append([float(self.processed), sample_rss_kb()])

    # -- checkpoint support ---------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every field."""
        return {
            "processed": self.processed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "peak_active": self.peak_active,
            "last_time": self.last_time,
            "digest": self.digest,
            "rejections": dict(self.rejections),
            "cost_histogram": self.cost_histogram.as_dict(),
            "recent": [list(entry) for entry in self.recent],
            "rss_samples": [list(point) for point in self.rss_samples],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reset every field to a :meth:`state` snapshot."""
        self.processed = int(state["processed"])
        self.admitted = int(state["admitted"])
        self.rejected = int(state["rejected"])
        self.departed = int(state["departed"])
        self.peak_active = int(state["peak_active"])
        self.last_time = float(state["last_time"])
        self.digest = str(state["digest"])
        self.rejections = {
            str(k): int(v) for k, v in state["rejections"].items()
        }
        self.cost_histogram = FixedBucketHistogram(
            state["cost_histogram"]["bounds"]
        )
        self.cost_histogram.merge(state["cost_histogram"])
        self.recent = deque(
            (
                (str(rid), bool(admitted), reason)
                for rid, admitted, reason in state["recent"]
            ),
            maxlen=self.RECENT_SIZE,
        )
        self.rss_samples = [
            [float(a), float(b)] for a, b in state["rss_samples"]
        ]

    def as_dict(self) -> Dict[str, Any]:
        """Reporting form (same shape as :meth:`state`, plus ratios)."""
        data = self.state()
        data["admission_ratio"] = self.admission_ratio
        return data

    def __repr__(self) -> str:
        return (
            f"StreamStats(processed={self.processed}, "
            f"admitted={self.admitted}, rejected={self.rejected}, "
            f"departed={self.departed})"
        )


class StreamEngine:
    """Drives an online algorithm over an :class:`ArrivalStream`.

    Args:
        algorithm: the online admission algorithm (its
            ``retain_decisions`` flag is switched off — an unbounded
            stream cannot afford the decision history).
        stream: the arrival source.
        controller: optional data plane; admitted trees are installed
            (a flow-table overflow evicts the admission) and departing
            requests uninstalled.
        emitter: optional snapshot emitter, ticked once per arrival.
        checkpoint_every: invoke ``checkpoint_sink`` (and sample RSS)
            after every this-many arrivals (``None`` disables both).
        checkpoint_sink: callable receiving this engine at each
            checkpoint boundary — typically ``lambda engine:
            save_checkpoint(path, engine)``.
        failures: optional failure/recovery schedule.  Setting it (even
            to an empty list) tracks every live tree so failures can be
            matched against it, and fills :attr:`failure_stats`; such an
            engine cannot be checkpointed.
        strategy: how broken requests are handled (default
            :class:`~repro.resilience.repair.DropAffected`); needs
            ``failures``.
        audit: re-check the network/controller residual consistency
            after every event (tests; slow).  Needs a ``controller``, and
            tracks live trees as ``failures`` does.
        clock: optional wall clock (e.g. ``time.perf_counter``) timing
            each decision for the ``engine.admission_seconds`` histogram
            and :attr:`decision_seconds`; reporting only.

    Event ordering matches a sorted event list: every departure and
    failure event with ``time <= arrival.time`` is handled *before* the
    arrival (recoveries, then failures, then departures at equal times),
    and pending departures at equal times drain in admission order.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        stream: ArrivalStream,
        controller: Optional[Controller] = None,
        emitter: Optional[SnapshotEmitter] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[["StreamEngine"], None]] = None,
        failures: Optional[Iterable[FailureEvent]] = None,
        strategy: Optional[RepairStrategy] = None,
        audit: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if audit and controller is None:
            raise SimulationError(
                "audit needs a controller: the residual-consistency check "
                "compares its flow tables with the live trees"
            )
        if strategy is not None and failures is None:
            raise SimulationError(
                "a repair strategy needs a failure schedule"
            )
        self.algorithm = algorithm
        self.stream = stream
        self.controller = controller
        self.emitter = emitter
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.audit = audit
        self.clock = clock
        #: Wall time summed over every decision (only with a ``clock``).
        self.decision_seconds = 0.0
        self.stats = StreamStats()
        algorithm.retain_decisions = False
        #: (departure time, admission seq, request id) min-heap.
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._heap_seq = 0
        #: request id -> live admission.  Without a failure schedule this
        #: is the serialized install record (see _active_record): what a
        #: checkpoint needs to rebuild the admission, kept engine-side
        #: because restored admissions have no tree object.  With one it
        #: is an ActiveRequest, whose tree a failure is matched against.
        self._active: Dict[Hashable, Any] = {}
        self._since_checkpoint = 0
        #: Failure-side aggregates; ``None`` when no schedule is set.
        self.failure_stats: Optional[ResilienceRunStats] = None
        #: Failure events not yet applied, in (time, rank) order.
        self._schedule: Deque[FailureEvent] = deque()
        #: request id -> (drop time, destination count) of requests a
        #: failure dropped; their downtime ends when they would depart.
        self._dropped: Dict[Hashable, Tuple[float, int]] = {}
        self.strategy = strategy if strategy is not None else DropAffected()
        self._repair_context = RepairContext(
            network=algorithm.network, controller=controller, algorithm=algorithm
        )
        if failures is not None or audit:
            self.failure_stats = ResilienceRunStats()
            self._schedule.extend(
                sorted(failures or (), key=FailureEvent.sort_key)
            )

    # -- introspection ---------------------------------------------------
    @property
    def active_count(self) -> int:
        """Requests currently holding resources."""
        return len(self._active)

    @property
    def pending_departures(self) -> int:
        """Scheduled departures not yet drained."""
        return len(self._heap)

    # -- event processing ------------------------------------------------
    def _drain(self, up_to: float) -> None:
        """Handle every failure event and departure due by ``up_to``."""
        heap = self._heap
        schedule = self._schedule
        while True:
            if (
                schedule
                and schedule[0].time <= up_to
                and (not heap or schedule[0].time <= heap[0][0])
            ):
                self._apply_failure_event(schedule.popleft())
            elif heap and heap[0][0] <= up_to:
                when, _, request_id = heapq.heappop(heap)
                self._depart(when, request_id)
            else:
                return
            if self.audit:
                self._audit()

    def _depart(self, when: float, request_id: Hashable) -> None:
        """Release one request whose holding time ran out at ``when``."""
        if when > self.stats.last_time:
            self.stats.last_time = when
        record = self._active.pop(request_id, None)
        if record is None:
            # a failure dropped it: its downtime ends now
            dropped = self._dropped.pop(request_id, None)
            if dropped is not None:
                assert self.failure_stats is not None
                drop_time, destinations = dropped
                self.failure_stats.destination_downtime += destinations * (
                    when - drop_time
                )
            return
        _obs_inc("engine.departures")
        with _obs_request(request_id):
            if isinstance(record, ActiveRequest) and not record.via_algorithm:
                record.transaction.release_all()  # re-homed by a repair
            else:
                self.algorithm.depart(request_id)
            if self.controller is not None:
                self.controller.uninstall(request_id)
            _obs_instant("engine.depart")
        self.stats.departed += 1

    def _apply_failure_event(self, event: FailureEvent) -> None:
        """Apply one failure/recovery and repair the requests it breaks."""
        stats = self.failure_stats
        assert stats is not None
        if event.time > self.stats.last_time:
            self.stats.last_time = event.time
        network = self.algorithm.network
        changed = apply_event(network, event)
        if event.up:
            if changed:
                stats.recoveries += 1
                _obs_inc("engine.recoveries")
            return
        if not changed:
            return
        stats.failures += 1
        _obs_inc("engine.failures")
        active = self._active
        with _obs_span("failure_repair"):
            if self.controller is not None:
                candidates = [
                    rid
                    for rid in affected_request_ids(self.controller, network)
                    if rid in active
                ]
            else:
                down_links = set(network.failed_links())
                down_servers = set(network.failed_servers())
                candidates = [
                    rid
                    for rid, record in active.items()
                    if _touches_failure(record, down_links, down_servers)
                ]
            for rid in candidates:
                impact = classify_impact(network, active[rid].tree)
                if not impact.broken:
                    continue
                stats.broken_requests += 1
                _obs_inc("engine.broken_requests")
                record = active.pop(rid)
                with _obs_request(rid):
                    result = self.strategy.repair(
                        self._repair_context, record, impact
                    )
                    _obs_instant(
                        "engine.repair", action=result.action.value
                    )
                stats.record_repair(result.action.value)
                if result.active is not None:
                    active[rid] = result.active
                    stats.repair_costs.append(result.repair_cost)
                else:
                    self._dropped[rid] = (
                        event.time,
                        len(record.request.destinations),
                    )

    def _close_downtime(self) -> None:
        """Close the downtime of dropped requests that never depart.

        They count as down until the last event handled: the horizon.
        """
        if self.failure_stats is None:
            return
        horizon = self.stats.last_time
        for drop_time, destinations in self._dropped.values():
            self.failure_stats.destination_downtime += destinations * (
                horizon - drop_time
            )
        self._dropped.clear()

    def _audit(self) -> None:
        """Check residuals and flow tables against the live trees."""
        assert self.controller is not None
        check_residual_consistency(
            self.algorithm.network,
            self.controller,
            [record.tree for record in self._active.values()],
        )

    def _active_record(self, arrival: Arrival, decision) -> Dict[str, Any]:
        """The JSON shape of one live admission (checkpoint payload)."""
        transaction = decision.transaction
        tree = decision.tree
        request = arrival.request
        return {
            "request": {
                "request_id": request.request_id,
                "source": request.source,
                "destinations": sorted(request.destinations, key=repr),
                "bandwidth": request.bandwidth,
                "chain": [kind.value for kind in request.chain.kinds],
            },
            "departs_at": (
                arrival.time + arrival.holding_time
                if arrival.holding_time is not None
                else None
            ),
            "bandwidth_ops": [
                [u, v, amount]
                for u, v, amount in transaction.bandwidth_reservations
            ],
            "compute_ops": [
                [node, amount]
                for node, amount in transaction.compute_reservations
            ],
            "hops": [[u, v] for u, v in tree.routing_hops()],
            "servers": list(tree.servers),
        }

    def process_one(self, arrival: Arrival) -> bool:
        """Process one arrival (due events first); returns admitted."""
        self._drain(arrival.time)
        request = arrival.request
        clock = self.clock
        with _obs_request(request.request_id):
            started = clock() if clock is not None else 0.0
            decision = self.algorithm.process(request)
            if decision.admitted and self.controller is not None:
                _install_admitted(self.algorithm, self.controller, decision)
            if clock is not None:
                elapsed = clock() - started
                self.decision_seconds += elapsed
                if _obs_enabled():
                    _obs_hist("engine.admission_seconds", elapsed)
            if decision.admitted:
                assert decision.tree is not None
                cost = decision.tree.total_cost
                if _obs_enabled():
                    _obs_hist("engine.tree_cost", cost, _COST_BOUNDS)
                _obs_instant("engine.admit", cost=cost)
                self.stats.record_decision(
                    request.request_id, True, None, cost
                )
                if self.failure_stats is None:
                    record = self._active_record(arrival, decision)
                else:
                    assert decision.transaction is not None
                    record = ActiveRequest(
                        request=request,
                        tree=decision.tree,
                        transaction=decision.transaction,
                        via_algorithm=True,
                    )
                self._active[request.request_id] = record
                if arrival.holding_time is not None:
                    heapq.heappush(
                        self._heap,
                        (
                            arrival.time + arrival.holding_time,
                            self._heap_seq,
                            request.request_id,
                        ),
                    )
                    self._heap_seq += 1
                if len(self._active) > self.stats.peak_active:
                    self.stats.peak_active = len(self._active)
            else:
                reason = (
                    decision.reason.value
                    if decision.reason is not None
                    else None
                )
                _obs_instant("engine.reject", reason=reason)
                self.stats.record_decision(
                    request.request_id, False, reason, None
                )
        if arrival.time > self.stats.last_time:
            self.stats.last_time = arrival.time
        if self.audit:
            self._audit()
        if self.emitter is not None:
            self.emitter.tick()
        return decision.admitted

    def run(
        self,
        max_events: Optional[int] = None,
        drain: bool = False,
    ) -> StreamStats:
        """Fold the stream through the algorithm.

        Args:
            max_events: stop after this many *additional* arrivals
                (``None`` runs to stream exhaustion — the stream's own
                ``limit`` must then be finite).
            drain: after the last arrival, also handle every still-
                scheduled departure and failure event (matches replaying
                a fully sorted event list whose tail follows the final
                arrival); requests a failure dropped and that never
                depart are then counted as down until the last event.

        Returns the engine's :class:`StreamStats` (also available as
        ``self.stats``; ``run`` may be called again to continue).
        """
        handled = 0
        with _obs_span("stream_run"):
            while max_events is None or handled < max_events:
                arrival = self.stream.next_arrival()
                if arrival is None:
                    break
                self.process_one(arrival)
                handled += 1
                if self.checkpoint_every is not None:
                    self._since_checkpoint += 1
                    if self._since_checkpoint >= self.checkpoint_every:
                        self._since_checkpoint = 0
                        self.stats.sample_rss()
                        if self.checkpoint_sink is not None:
                            self.checkpoint_sink(self)
            if drain:
                self._drain(float("inf"))
                self._close_downtime()
        return self.stats

    # -- checkpoint support ----------------------------------------------
    def heap_state(self) -> Dict[str, Any]:
        """The departure queue as JSON (heap invariant preserved)."""
        return {
            "entries": [[when, seq, rid] for when, seq, rid in self._heap],
            "next_seq": self._heap_seq,
        }

    def restore_heap(self, state: Dict[str, Any]) -> None:
        """Rebuild the departure queue from :meth:`heap_state`.

        Entries must already carry decoded request ids (the checkpoint
        layer owns the JSON node codec).
        """
        self._heap = [
            (float(when), int(seq), rid)
            for when, seq, rid in state["entries"]
        ]
        heapq.heapify(self._heap)
        self._heap_seq = int(state["next_seq"])

    def active_records(self) -> Dict[Hashable, Dict[str, Any]]:
        """Live admission records, keyed by request id (insertion order
        is admission order — the restore layer replays them in order)."""
        return dict(self._active)

    def adopt_active(
        self, request_id: Hashable, record: Dict[str, Any]
    ) -> None:
        """Re-register one restored admission record (restore layer)."""
        if request_id in self._active:
            raise SimulationError(
                f"request {request_id!r} is already active"
            )
        self._active[request_id] = record
