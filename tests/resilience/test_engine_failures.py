"""Engine tests: failure-free parity, invariants under repair, determinism."""

import math

import pytest

from repro import obs
from repro.analysis.profiles import ExperimentProfile
from repro.analysis.resilience import run_resilience
from repro.core import OnlineCP
from repro.exceptions import SimulationError
from repro.network import Controller, build_sdn
from repro.resilience.events import (
    exponential_failures,
    horizon_of,
    link_failure,
)
from repro.resilience.repair import STRATEGIES, DropAffected
from repro.simulation import set_default_workers
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload, poisson_process
from repro.workload.arrivals import EventKind

SEED = 13


def _setup(seed=SEED, requests=30):
    graph = gt_itm_flat(40, seed=seed)
    network = build_sdn(graph, seed=seed)
    workload = generate_workload(graph, requests, dmax_ratio=0.1, seed=seed + 1)
    events = poisson_process(workload, 2.0, 8.0, seed=seed + 2)
    return network, events


def _engine(network, events, **kwargs):
    return StreamEngine(
        OnlineCP(network), SequenceStream.from_events(events), **kwargs
    )


def _failures(network, workload_events):
    horizon = horizon_of(workload_events)
    return exponential_failures(
        network,
        mean_time_to_failure=horizon * 0.6,
        mean_time_to_repair=horizon * 0.05,
        horizon=horizon,
        seed=4,
        fraction=0.4,
    )


@pytest.fixture
def telemetry():
    saved = obs.snapshot()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.reset()
    obs.merge(saved)
    if not was_enabled:
        obs.disable()


class TestFailureFreeParity:
    """An empty failure schedule must reproduce a run without one."""

    def test_bit_identical_to_run_with_departures(self, telemetry):
        network_a, events = _setup()
        network_b, _ = _setup()

        baseline = _engine(network_a, events, controller=Controller())
        before = obs.counters()
        baseline.run(drain=True)
        baseline_counters = obs.counters_since(before)

        with_failures = _engine(
            network_b, events, controller=Controller(), failures=[]
        )
        before = obs.counters()
        with_failures.run(drain=True)
        failure_counters = obs.counters_since(before)

        # same decisions, costs and order: the chained digest and every
        # rolling statistic agree
        assert with_failures.stats.digest == baseline.stats.digest
        assert with_failures.stats.state() == baseline.stats.state()
        # per-element residuals are bit-identical
        for link_a, link_b in zip(network_a.links(), network_b.links()):
            assert link_a.endpoints == link_b.endpoints
            assert link_a.residual == link_b.residual
        for server_a, server_b in zip(network_a.servers(), network_b.servers()):
            assert server_a.residual == server_b.residual
        # identical counter deltas
        assert failure_counters == baseline_counters
        # and no failure-side activity was recorded
        assert baseline.failure_stats is None
        stats = with_failures.failure_stats
        assert stats.failures == 0
        assert stats.broken_requests == 0
        assert stats.repairs == {}
        assert stats.destination_downtime == 0.0


class TestRepairInvariants:
    """Every strategy keeps the network residual-consistent at every event."""

    @pytest.mark.parametrize(
        "strategy_cls", STRATEGIES, ids=[cls.name for cls in STRATEGIES]
    )
    def test_audited_run_with_failures(self, strategy_cls):
        network, workload_events = _setup(seed=21, requests=25)
        engine = _engine(
            network,
            workload_events,
            controller=Controller(),
            failures=_failures(network, workload_events),
            strategy=strategy_cls(),
            audit=True,  # check_residual_consistency after every event
        )
        engine.run(drain=True)
        stats = engine.failure_stats
        assert stats.failures > 0
        assert stats.broken_requests > 0
        # every broken request was either repaired or dropped
        assert sum(stats.repairs.values()) == stats.broken_requests
        # all requests departed or were dropped: exact full restoration
        for link in network.links():
            assert link.residual == link.capacity
        for server in network.servers():
            assert server.residual == server.capacity

    def test_drop_strategy_accumulates_downtime(self):
        network, workload_events = _setup(seed=21, requests=25)
        engine = _engine(
            network,
            workload_events,
            controller=Controller(),
            failures=_failures(network, workload_events),
        )
        engine.run(drain=True)
        stats = engine.failure_stats
        assert stats.dropped_by_failure == stats.broken_requests
        assert stats.destination_downtime > 0.0


class _RecordingDrop(DropAffected):
    """The drop baseline, remembering which requests it was handed."""

    def __init__(self):
        self.seen = []

    def repair(self, context, active, impact):
        self.seen.append(active.request_id)
        return super().repair(context, active, impact)


class TestEventOrder:
    """Failures run before departures (and arrivals) at the same instant."""

    def _first_admission(self):
        network, events = _setup()
        probe = _engine(network, events, failures=[])
        probe.run(max_events=1)
        (request_id, record), = probe.active_records().items()
        departs = next(
            e.time
            for e in events
            if e.kind is EventKind.DEPARTURE
            and e.request.request_id == request_id
        )
        link = sorted(record.tree.touched_links(), key=repr)[0]
        return events, request_id, departs, link

    @pytest.mark.parametrize("after", [False, True])
    def test_failure_at_a_departure_instant_comes_first(self, after):
        events, request_id, departs, link = self._first_admission()
        when = math.nextafter(departs, math.inf) if after else departs
        network, _ = _setup()
        strategy = _RecordingDrop()
        engine = _engine(
            network,
            events,
            failures=[link_failure(when, *link)],
            strategy=strategy,
        )
        engine.run(drain=True)
        # at the departure instant the request still holds its tree, so
        # the failure breaks it; an instant later it is already gone
        assert (request_id in strategy.seen) is not after


class TestEngineArguments:
    def test_audit_without_controller_raises(self):
        network, events = _setup()
        with pytest.raises(SimulationError):
            _engine(network, events, failures=[], audit=True)

    def test_strategy_without_failure_schedule_raises(self):
        network, events = _setup()
        with pytest.raises(SimulationError):
            _engine(network, events, strategy=DropAffected())


TINY_PROFILE = ExperimentProfile(
    name="tiny-resilience",
    network_sizes=(30,),
    ratios=(0.1,),
    offline_requests=3,
    online_requests=150,
    request_counts=(50,),
    base_seed=7,
)


class TestResilienceExperiment:
    def test_strategy_ordering_and_worker_invariance(self):
        set_default_workers(1)
        try:
            serial = run_resilience(TINY_PROFILE)
            set_default_workers(2)
            parallel = run_resilience(TINY_PROFILE)
        finally:
            set_default_workers(None)

        service = next(
            p for p in serial if p.figure_id == "resilience-service"
        )
        cost = next(p for p in serial if p.figure_id == "resilience-cost")
        names = [str(x) for x in service.xs]
        broken = service.series_by_label("broken").values
        assert all(b > 0 for b in broken)

        # acceptance orderings on the seeded scenario
        ratio = service.series_by_label("disruption_ratio").values
        assert ratio[names.index("graft")] < ratio[names.index("drop")]
        mean_cost = cost.series_by_label("mean_repair_cost").values
        assert (
            mean_cost[names.index("graft")] < mean_cost[names.index("readmit")]
        )

        # identical results at every worker count
        for panel_a, panel_b in zip(serial, parallel):
            assert panel_a.xs == panel_b.xs
            for series_a, series_b in zip(panel_a.series, panel_b.series):
                assert series_a.label == series_b.label
                assert series_a.values == series_b.values
