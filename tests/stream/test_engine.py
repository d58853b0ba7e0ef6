"""StreamEngine: input equivalence, replays, bounded memory, rolling stats."""

import pytest

from repro.core import OnlineCP, SPOnline
from repro.core.online_base import RejectReason
from repro.exceptions import SimulationError
from repro.network import Controller, build_sdn
from repro.stream import (
    FigureStream,
    SequenceStream,
    StreamEngine,
    StreamStats,
    make_stream,
)
from repro.topology import gt_itm_flat
from repro.workload import (
    RequestGenerator,
    WorkloadConfig,
    generate_workload,
    one_by_one,
    poisson_process,
)

SEED = 31


@pytest.fixture(scope="module")
def graph():
    return gt_itm_flat(24, seed=SEED)


def fresh_engine(graph, limit=200, arrival_rate=3.0, controller=False):
    network = build_sdn(graph, seed=SEED)
    stream = make_stream(
        "poisson", graph, seed=SEED, limit=limit, arrival_rate=arrival_rate
    )
    return StreamEngine(
        OnlineCP(network),
        stream,
        controller=Controller() if controller else None,
    )


class TestRunnerEquivalence:
    """The engine replays the sorted-event-list semantics exactly."""

    def test_poisson_process_list_matches_poisson_stream(self, graph):
        # Materialized side: the classic event list, fed to the engine.
        bodies = list(
            RequestGenerator(graph, WorkloadConfig(seed=SEED)).generate(150)
        )
        events = poisson_process(
            bodies, arrival_rate=3.0, mean_holding_time=40.0, seed=SEED + 1
        )
        listed = StreamEngine(
            OnlineCP(build_sdn(graph, seed=SEED)),
            SequenceStream.from_events(events),
        )
        listed.run(drain=True)

        # Streaming side: same draws, nothing materialized.  make_stream
        # seeds bodies with `seed` and timing with `seed + 1`, mirroring
        # the two RNGs above.
        engine = fresh_engine(graph, limit=150, arrival_rate=3.0)
        engine.run(drain=True)

        assert engine.stats.digest == listed.stats.digest
        assert engine.stats.state() == listed.stats.state()
        assert engine.stats.departed == engine.stats.admitted  # all drained
        assert engine.algorithm.network.snapshot() == (
            listed.algorithm.network.snapshot()
        )

    def test_controller_tables_track_active_set(self, graph):
        engine = fresh_engine(graph, limit=120, controller=True)
        engine.run()
        assert len(engine.controller.installed_requests) == engine.active_count
        engine.run(drain=True)
        assert engine.controller.installed_requests == []
        assert engine.active_count == 0


@pytest.fixture
def setup():
    graph = gt_itm_flat(40, seed=13)
    network = build_sdn(graph, seed=13)
    requests = generate_workload(graph, 20, dmax_ratio=0.1, seed=14)
    return graph, network, requests


class TestFigureReplay:
    """Arrival-only request lists: the paper's one-by-one model."""

    def test_admitted_count_is_monotone(self, setup):
        _, network, requests = setup
        engine = StreamEngine(SPOnline(network), SequenceStream(requests))
        timeline = []
        while engine.run(max_events=1).processed > len(timeline):
            timeline.append(engine.stats.admitted)
        assert len(timeline) == len(requests)
        assert timeline == sorted(timeline)
        assert timeline[-1] == engine.stats.admitted
        assert engine.stats.processed == len(requests)

    def test_utilization_in_range(self, setup):
        _, network, requests = setup
        StreamEngine(OnlineCP(network), SequenceStream(requests)).run()
        assert 0.0 < network.mean_link_utilization() <= 1.0
        assert 0.0 <= network.mean_server_utilization() <= 1.0

    def test_controller_tracks_admissions(self, setup):
        _, network, requests = setup
        controller = Controller()
        stats = StreamEngine(
            SPOnline(network), SequenceStream(requests), controller=controller
        ).run()
        assert len(controller.installed_requests) == stats.admitted

    def test_clock_times_every_decision(self, setup):
        _, network, requests = setup
        ticks = iter(range(1000))
        engine = StreamEngine(
            SPOnline(network),
            SequenceStream(requests),
            clock=lambda: float(next(ticks)),
        )
        engine.run()
        # two readings per decision, one unit apart
        assert engine.decision_seconds == float(len(requests))


class TestChurnReplay:
    """Timed arrival/departure lists (``poisson_process`` output)."""

    def test_arrival_only_event_list_matches_request_list(self, setup):
        graph, _, requests = setup
        plain = StreamEngine(
            SPOnline(build_sdn(graph, seed=13)), SequenceStream(requests)
        ).run()
        evented = StreamEngine(
            SPOnline(build_sdn(graph, seed=13)),
            SequenceStream.from_events(one_by_one(requests)),
        ).run(drain=True)
        assert evented.digest == plain.digest
        assert evented.departed == 0

    def test_departures_free_capacity(self, setup):
        graph, _, requests = setup
        network = build_sdn(graph, seed=13)
        events = poisson_process(
            requests, arrival_rate=1.0, mean_holding_time=0.5, seed=9
        )
        controller = Controller()
        stats = StreamEngine(
            SPOnline(network),
            SequenceStream.from_events(events),
            controller=controller,
        ).run(drain=True)
        # every admitted request also departed
        assert stats.admitted > 0
        assert stats.departed == stats.admitted
        assert controller.total_rules() == 0
        for link in network.links():
            assert link.residual == pytest.approx(link.capacity)

    def test_departures_enable_more_admissions_under_pressure(self):
        graph = gt_itm_flat(30, seed=21)
        requests = generate_workload(graph, 250, dmax_ratio=0.2, seed=22)
        static = StreamEngine(
            SPOnline(build_sdn(graph, seed=21)), SequenceStream(requests)
        ).run()
        churn = StreamEngine(
            SPOnline(build_sdn(graph, seed=21)),
            SequenceStream.from_events(
                poisson_process(requests, 5.0, 2.0, seed=23)
            ),
        ).run(drain=True)
        assert churn.admitted >= static.admitted

    def test_departure_instants_round_trip_exactly(self, setup):
        _, _, requests = setup
        events = poisson_process(requests, 2.0, 5.0, seed=3)
        departs = {
            e.request.request_id: e.time
            for e in events
            if e.kind.value == "departure"
        }
        for arrival in SequenceStream.from_events(events):
            assert arrival.time + arrival.holding_time == departs[
                arrival.request.request_id
            ]


class _RecordingGenerator(RequestGenerator):
    """A request generator that logs every body it hands out."""

    def __init__(self, graph, config):
        super().__init__(graph, config)
        self.handed_out = []

    def next_request(self):
        request = super().next_request()
        self.handed_out.append(request.request_id)
        return request


class TestListAndLazyInputs:
    """A materialized list and a lazy generator drive identical runs."""

    def test_sequence_and_figure_streams_give_same_digest(self, setup):
        graph, _, _ = setup
        config = WorkloadConfig(dmax_ratio=0.1, seed=14)
        requests = RequestGenerator(graph, config).generate(20)
        network_a = build_sdn(graph, seed=13)
        network_b = build_sdn(graph, seed=13)
        from_list = StreamEngine(
            SPOnline(network_a), SequenceStream(requests)
        ).run()
        lazy = StreamEngine(
            SPOnline(network_b),
            FigureStream(
                RequestGenerator(graph, WorkloadConfig(dmax_ratio=0.1, seed=14)),
                limit=20,
            ),
        ).run()
        assert lazy.digest == from_list.digest
        assert lazy.state() == from_list.state()
        assert network_b.snapshot() == network_a.snapshot()

    def test_churn_event_list_and_iterator_give_same_digest(self, setup):
        graph, _, requests = setup
        events = poisson_process(
            requests, arrival_rate=2.0, mean_holding_time=5.0, seed=3
        )
        network_a = build_sdn(graph, seed=13)
        network_b = build_sdn(graph, seed=13)
        from_list = StreamEngine(
            SPOnline(network_a), SequenceStream.from_events(events)
        ).run(drain=True)
        lazy = StreamEngine(
            SPOnline(network_b), SequenceStream.from_events(iter(events))
        ).run(drain=True)
        assert from_list.departed > 0
        assert lazy.digest == from_list.digest
        assert lazy.state() == from_list.state()
        assert network_b.snapshot() == network_a.snapshot()

    def test_generator_is_consumed_exactly_once(self, setup):
        graph, _, _ = setup
        generator = _RecordingGenerator(
            graph, WorkloadConfig(dmax_ratio=0.1, seed=14)
        )
        stats = StreamEngine(
            SPOnline(build_sdn(graph, seed=13)),
            FigureStream(generator, limit=20),
        ).run()
        twin = RequestGenerator(graph, WorkloadConfig(dmax_ratio=0.1, seed=14))
        assert generator.handed_out == [
            request.request_id for request in twin.generate(20)
        ]
        assert stats.admitted + stats.rejected == 20


class TestBoundedMemory:
    def test_no_decision_history_is_retained(self, graph):
        engine = fresh_engine(graph, limit=100)
        assert engine.algorithm.retain_decisions is False
        engine.run()
        assert engine.algorithm.decisions == []
        assert engine.algorithm.decided_count == 100

    def test_active_set_tracks_churn_not_stream_length(self, graph):
        engine = fresh_engine(graph, limit=400, arrival_rate=2.0)
        engine.run()
        # Offered load is rate * mean_holding = 80 concurrent requests;
        # the active set must be of that order, not of the stream length.
        assert engine.stats.peak_active < 200
        assert engine.active_count <= engine.stats.peak_active
        assert engine.pending_departures == engine.active_count

    def test_recent_ring_is_bounded(self, graph):
        engine = fresh_engine(graph, limit=200)
        engine.run()
        assert len(engine.stats.recent) == StreamStats.RECENT_SIZE

    def test_checkpoint_window_samples_rss(self, graph):
        engine = fresh_engine(graph, limit=100)
        engine.checkpoint_every = 25
        engine.run()
        assert len(engine.stats.rss_samples) == 4
        assert all(rss > 0 for _, rss in engine.stats.rss_samples)


class TestStreamStats:
    def test_empty(self):
        stats = StreamStats()
        assert stats.processed == 0
        assert stats.admission_ratio == 0.0
        assert stats.cost_histogram.count == 0

    def test_aggregates(self):
        stats = StreamStats()
        for rid, cost in enumerate([1.0, 2.0, 3.0]):
            stats.record_decision(rid, True, None, cost)
        stats.record_decision(3, False, "disconnected", None)
        assert stats.processed == 4
        assert stats.admission_ratio == pytest.approx(0.75)
        assert stats.cost_histogram.count == 3
        assert stats.cost_histogram.sum == pytest.approx(6.0)

    def test_reject_histogram(self):
        stats = StreamStats()
        tree = RejectReason.TREE_THRESHOLD.value
        stats.record_decision(0, False, tree, None)
        stats.record_decision(1, False, tree, None)
        stats.record_decision(2, False, RejectReason.DISCONNECTED.value, None)
        stats.record_decision(3, False, None, None)  # counted, no reason
        assert stats.rejected == 4
        assert stats.rejections == {tree: 2, "disconnected": 1}

    def test_digest_is_deterministic(self, graph):
        a = fresh_engine(graph, limit=150).run().digest
        b = fresh_engine(graph, limit=150).run().digest
        assert a == b
        assert len(a) == 64

    def test_digest_commits_to_every_decision(self, graph):
        short = fresh_engine(graph, limit=149).run().digest
        full = fresh_engine(graph, limit=150).run().digest
        assert short != full

    def test_state_round_trip(self, graph):
        stats = fresh_engine(graph, limit=150).run()
        clone = StreamStats()
        clone.restore(stats.state())
        assert clone.state() == stats.state()
        assert clone.admission_ratio == stats.admission_ratio

    def test_counts_are_consistent(self, graph):
        stats = fresh_engine(graph, limit=200, arrival_rate=8.0).run()
        assert stats.processed == 200
        assert stats.admitted + stats.rejected == stats.processed
        assert sum(stats.rejections.values()) <= stats.rejected
        assert stats.cost_histogram.count == stats.admitted

    def test_run_can_be_resumed_in_chunks(self, graph):
        whole = fresh_engine(graph, limit=150).run()
        chunked = fresh_engine(graph, limit=150)
        chunked.run(max_events=50)
        chunked.run(max_events=50)
        chunked.run()
        assert chunked.stats.digest == whole.digest

    def test_checkpoint_every_validation(self, graph):
        network = build_sdn(graph, seed=SEED)
        stream = make_stream("poisson", graph, seed=SEED, limit=10)
        with pytest.raises(SimulationError):
            StreamEngine(OnlineCP(network), stream, checkpoint_every=0)


class TestCheckpointSink:
    def test_sink_fires_at_the_configured_cadence(self, graph):
        boundaries = []
        engine = fresh_engine(graph, limit=100)
        engine.checkpoint_every = 30
        engine.checkpoint_sink = lambda eng: boundaries.append(
            eng.stats.processed
        )
        engine.run()
        assert boundaries == [30, 60, 90]
