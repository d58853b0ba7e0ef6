"""Seeded arrival streams: determinism, state round-trips, families."""

import json
import random

import pytest

from repro.exceptions import RequestError
from repro.stream import (
    DiurnalStream,
    FigureStream,
    FlashCrowdStream,
    ParetoGroupGenerator,
    PoissonStream,
    SequenceStream,
    bounded_pareto,
    make_stream,
)
from repro.stream.workloads import WORKLOAD_FAMILIES
from repro.topology import gt_itm_flat
from repro.workload import RequestGenerator, WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def graph():
    return gt_itm_flat(24, seed=5)


def fingerprint(arrival):
    """Everything that makes two arrivals 'the same'."""
    request = arrival.request
    return (
        arrival.time,
        arrival.holding_time,
        request.request_id,
        request.source,
        tuple(sorted(request.destinations, key=repr)),
        request.bandwidth,
        tuple(kind.value for kind in request.chain.kinds),
    )


def drain(stream, count=None):
    out = []
    while count is None or len(out) < count:
        arrival = stream.next_arrival()
        if arrival is None:
            break
        out.append(fingerprint(arrival))
    return out


class TestDeterminism:
    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_same_seed_same_stream(self, graph, family):
        a = drain(make_stream(family, graph, seed=11, limit=40))
        b = drain(make_stream(family, graph, seed=11, limit=40))
        assert a == b
        assert len(a) == 40

    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_different_seed_differs(self, graph, family):
        a = drain(make_stream(family, graph, seed=11, limit=40))
        b = drain(make_stream(family, graph, seed=12, limit=40))
        assert a != b

    def test_times_non_decreasing_everywhere(self, graph):
        for family in WORKLOAD_FAMILIES:
            stream = make_stream(family, graph, seed=3, limit=60)
            times = [arrival.time for arrival in stream]
            assert times == sorted(times), family

    def test_iter_matches_next_arrival(self, graph):
        by_iter = [
            fingerprint(a)
            for a in make_stream("poisson", graph, seed=7, limit=25)
        ]
        assert by_iter == drain(make_stream("poisson", graph, seed=7, limit=25))


class TestStateRoundTrip:
    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_mid_stream_snapshot_resumes_bit_identically(self, graph, family):
        reference = make_stream(family, graph, seed=9, limit=40)
        drain(reference, 17)
        # JSON round-trip: the state must survive serialization, because
        # the checkpoint layer persists it to disk.
        state = json.loads(json.dumps(reference.state()))
        tail = drain(reference)

        resumed = make_stream(family, graph, seed=9, limit=40)
        resumed.restore(state)
        assert resumed.produced == 17
        assert drain(resumed) == tail

    def test_restored_stream_honours_limit(self, graph):
        stream = make_stream("poisson", graph, seed=2, limit=10)
        drain(stream, 6)
        state = stream.state()
        resumed = make_stream("poisson", graph, seed=2, limit=10)
        resumed.restore(state)
        assert len(drain(resumed)) == 4
        assert resumed.next_arrival() is None


class TestLimits:
    def test_limit_zero_is_empty(self, graph):
        assert drain(make_stream("poisson", graph, seed=1, limit=0)) == []

    def test_negative_limit_rejected(self, graph):
        with pytest.raises(RequestError):
            make_stream("poisson", graph, seed=1, limit=-1)

    def test_unknown_family_rejected(self, graph):
        with pytest.raises(RequestError):
            make_stream("bursty", graph, seed=1, limit=5)


class TestPoissonStream:
    def test_matches_poisson_process_draw_order(self, graph):
        """The stream replays poisson_process's exact timing draws."""
        from repro.workload import poisson_process
        from repro.workload.arrivals import EventKind

        config = WorkloadConfig(seed=21)
        bodies = list(RequestGenerator(graph, config).generate(30))
        events = poisson_process(
            bodies, arrival_rate=2.0, mean_holding_time=15.0, seed=77
        )
        arrivals = [e for e in events if e.kind is EventKind.ARRIVAL]
        departures = {
            e.request.request_id: e.time
            for e in events
            if e.kind is EventKind.DEPARTURE
        }

        stream = PoissonStream(
            RequestGenerator(graph, WorkloadConfig(seed=21)),
            arrival_rate=2.0,
            mean_holding=15.0,
            seed=77,
            limit=30,
        )
        for event in arrivals:
            arrival = stream.next_arrival()
            assert arrival.time == event.time
            assert arrival.request.request_id == event.request.request_id
            expected_departure = departures[event.request.request_id]
            assert arrival.time + arrival.holding_time == expected_departure

    def test_parameter_validation(self, graph):
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        with pytest.raises(RequestError):
            PoissonStream(generator, arrival_rate=0.0, mean_holding=1.0)
        with pytest.raises(RequestError):
            PoissonStream(generator, arrival_rate=1.0, mean_holding=0.0)


class TestDiurnalStream:
    def test_rate_swings_between_base_and_peak(self, graph):
        stream = DiurnalStream(
            RequestGenerator(graph, WorkloadConfig(seed=0)),
            base_rate=1.0,
            peak_rate=5.0,
            period=100.0,
            mean_holding=10.0,
            seed=1,
        )
        assert stream._rate(0.0) == pytest.approx(1.0)
        assert stream._rate(50.0) == pytest.approx(5.0)
        assert stream._rate(100.0) == pytest.approx(1.0)
        for t in range(0, 200, 7):
            assert 1.0 <= stream._rate(float(t)) <= 5.0 + 1e-12

    def test_validation(self, graph):
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        with pytest.raises(RequestError):
            DiurnalStream(
                generator, base_rate=5.0, peak_rate=1.0,
                period=10.0, mean_holding=1.0,
            )


class TestFlashCrowdStream:
    def _stream(self, graph, **overrides):
        kwargs = dict(
            base_rate=1.0,
            multiplier=10.0,
            episode_interval=100.0,
            episode_duration=20.0,
            mean_holding=5.0,
            first_episode=50.0,
            seed=3,
            limit=400,
        )
        kwargs.update(overrides)
        return FlashCrowdStream(
            RequestGenerator(graph, WorkloadConfig(seed=3)), **kwargs
        )

    def test_episode_schedule_is_deterministic(self, graph):
        stream = self._stream(graph)
        assert not stream.in_episode(0.0)
        assert not stream.in_episode(49.9)
        assert stream.in_episode(50.0)
        assert stream.in_episode(69.9)
        assert not stream.in_episode(70.0)
        assert stream.in_episode(150.0)  # next episode

    def test_arrivals_cluster_inside_episodes(self, graph):
        stream = self._stream(graph)
        inside = outside = 0
        for arrival in stream:
            if stream.in_episode(arrival.time):
                inside += 1
            else:
                outside += 1
        # Episodes cover 20% of the timeline at 10x the rate: ~71% of
        # arrivals should land inside (10*0.2 / (10*0.2 + 0.8)).
        assert inside > outside

    def test_validation(self, graph):
        with pytest.raises(RequestError):
            self._stream(graph, multiplier=0.5)
        with pytest.raises(RequestError):
            self._stream(graph, episode_duration=200.0)


#: Values every rate/holding/spacing/period/multiplier check must refuse.
NON_POSITIVE_OR_NON_FINITE = [0.0, -1.0, float("nan"), float("inf"), float("-inf")]


def _refuses(build, field, bad, **valid):
    valid[field] = bad
    with pytest.raises(RequestError):
        build(**valid)


class TestNonFiniteParameters:
    """NaN and infinities are refused like zero and negative values."""

    @pytest.mark.parametrize("bad", NON_POSITIVE_OR_NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", ["arrival_rate", "mean_holding"])
    def test_poisson_stream(self, graph, field, bad):
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        _refuses(
            lambda **kw: PoissonStream(generator, **kw),
            field, bad, arrival_rate=1.0, mean_holding=1.0,
        )

    @pytest.mark.parametrize("bad", NON_POSITIVE_OR_NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "field", ["base_rate", "peak_rate", "period", "mean_holding"]
    )
    def test_diurnal_stream(self, graph, field, bad):
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        _refuses(
            lambda **kw: DiurnalStream(generator, **kw),
            field, bad,
            base_rate=1.0, peak_rate=2.0, period=10.0, mean_holding=1.0,
        )

    @pytest.mark.parametrize("bad", NON_POSITIVE_OR_NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "field",
        [
            "base_rate",
            "multiplier",
            "episode_interval",
            "episode_duration",
            "mean_holding",
            "first_episode",
        ],
    )
    def test_flash_crowd_stream(self, graph, field, bad):
        if field == "first_episode" and bad == 0.0:
            pytest.skip("an episode may start at time zero")
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        _refuses(
            lambda **kw: FlashCrowdStream(generator, **kw),
            field, bad,
            base_rate=1.0, multiplier=2.0, episode_interval=10.0,
            episode_duration=1.0, mean_holding=1.0, first_episode=0.0,
        )

    @pytest.mark.parametrize("bad", NON_POSITIVE_OR_NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", ["spacing", "holding_time"])
    def test_sequence_stream(self, graph, field, bad):
        requests = generate_workload(graph, 3, dmax_ratio=0.2, seed=4)
        _refuses(
            lambda **kw: SequenceStream(requests, **kw),
            field, bad, spacing=1.0, holding_time=1.0,
        )

    @pytest.mark.parametrize("bad", NON_POSITIVE_OR_NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", ["spacing", "holding_time"])
    def test_figure_stream(self, graph, field, bad):
        generator = RequestGenerator(graph, WorkloadConfig(seed=0))
        _refuses(
            lambda **kw: FigureStream(generator, **kw),
            field, bad, spacing=1.0, holding_time=1.0,
        )


class TestSequenceAndFigureStreams:
    def test_sequence_stream_is_unit_spaced_no_departures(self, graph):
        requests = generate_workload(graph, 8, dmax_ratio=0.2, seed=4)
        stream = SequenceStream(requests)
        arrivals = list(stream)
        assert [a.time for a in arrivals] == [float(i) for i in range(8)]
        assert all(a.holding_time is None for a in arrivals)
        assert [a.request for a in arrivals] == list(requests)

    def test_figure_stream_matches_generator_output(self, graph):
        config = WorkloadConfig(seed=6)
        expected = list(RequestGenerator(graph, config).generate(12))
        stream = FigureStream(
            RequestGenerator(graph, WorkloadConfig(seed=6)), limit=12
        )
        produced = [a.request for a in stream]
        assert [r.request_id for r in produced] == [
            r.request_id for r in expected
        ]
        assert [r.source for r in produced] == [r.source for r in expected]


class TestBoundedPareto:
    def test_samples_stay_in_bounds(self):
        rng = random.Random(13)
        draws = [bounded_pareto(rng, 1.2, 2, 9) for _ in range(2000)]
        assert min(draws) >= 2
        assert max(draws) <= 9

    def test_heavy_tail_prefers_small_groups(self):
        rng = random.Random(13)
        draws = [bounded_pareto(rng, 1.2, 1, 20) for _ in range(4000)]
        small = sum(1 for d in draws if d <= 3)
        assert small > len(draws) / 2
        assert max(draws) > 10  # but the tail does reach high values

    def test_degenerate_interval(self):
        assert bounded_pareto(random.Random(0), 1.0, 4, 4) == 4

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(RequestError):
            bounded_pareto(rng, 0.0, 1, 5)
        with pytest.raises(RequestError):
            bounded_pareto(rng, 1.0, 5, 2)


class TestParetoGroupGenerator:
    def test_group_sizes_respect_bounds(self, graph):
        generator = ParetoGroupGenerator(
            graph, WorkloadConfig(seed=8), alpha=1.2, min_group=2, max_group=6
        )
        sizes = [generator.next_request().num_destinations for _ in range(300)]
        assert min(sizes) >= 2
        assert max(sizes) <= 6

    def test_state_round_trip(self, graph):
        generator = ParetoGroupGenerator(graph, WorkloadConfig(seed=8))
        for _ in range(10):
            generator.next_request()
        state = json.loads(json.dumps(generator.state()))
        tail = [generator.next_request() for _ in range(10)]

        resumed = ParetoGroupGenerator(graph, WorkloadConfig(seed=8))
        resumed.restore(state)
        replay = [resumed.next_request() for _ in range(10)]
        assert [r.request_id for r in replay] == [r.request_id for r in tail]
        assert [r.source for r in replay] == [r.source for r in tail]
        assert [r.bandwidth for r in replay] == [r.bandwidth for r in tail]

    def test_validation(self, graph):
        with pytest.raises(RequestError):
            ParetoGroupGenerator(graph, min_group=0)
        with pytest.raises(RequestError):
            ParetoGroupGenerator(graph, min_group=5, max_group=2)
        with pytest.raises(RequestError):
            ParetoGroupGenerator(graph, alpha=-1.0)
