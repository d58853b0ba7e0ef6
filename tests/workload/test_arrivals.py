"""Unit tests for arrival processes."""

import pytest

from repro.exceptions import RequestError
from repro.topology import gt_itm_flat
from repro.workload import (
    EventKind,
    generate_workload,
    interleave,
    one_by_one,
    poisson_process,
)


@pytest.fixture
def requests():
    return generate_workload(gt_itm_flat(30, seed=2), 10, seed=2)


class TestOneByOne:
    def test_unit_spacing_no_departures(self, requests):
        events = one_by_one(requests)
        assert len(events) == len(requests)
        assert all(e.kind is EventKind.ARRIVAL for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(1.0)


class TestPoisson:
    def test_pairs_and_ordering(self, requests):
        events = poisson_process(
            requests, arrival_rate=1.0, mean_holding_time=5.0, seed=1
        )
        assert len(events) == 2 * len(requests)
        times = [e.sort_key() for e in events]
        assert times == sorted(times)
        arrivals = {
            e.request.request_id: e.time
            for e in events
            if e.kind is EventKind.ARRIVAL
        }
        departures = {
            e.request.request_id: e.time
            for e in events
            if e.kind is EventKind.DEPARTURE
        }
        assert set(arrivals) == set(departures)
        for request_id, arrival_time in arrivals.items():
            assert departures[request_id] > arrival_time

    def test_deterministic(self, requests):
        a = poisson_process(requests, 1.0, 5.0, seed=3)
        b = poisson_process(requests, 1.0, 5.0, seed=3)
        assert [e.time for e in a] == [e.time for e in b]

    def test_rate_scales_density(self, requests):
        slow = poisson_process(requests, 0.1, 1.0, seed=4)
        fast = poisson_process(requests, 10.0, 1.0, seed=4)
        slow_last = max(e.time for e in slow if e.kind is EventKind.ARRIVAL)
        fast_last = max(e.time for e in fast if e.kind is EventKind.ARRIVAL)
        assert fast_last < slow_last

    def test_invalid_parameters(self, requests):
        with pytest.raises(RequestError):
            poisson_process(requests, 0.0, 5.0)
        with pytest.raises(RequestError):
            poisson_process(requests, 1.0, 0.0)

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")], ids=repr
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_parameters(self, requests, position, bad):
        args = [1.0, 5.0]
        args[position] = bad
        with pytest.raises(RequestError):
            poisson_process(requests, *args)


class TestInterleave:
    def test_merges_sorted(self, requests):
        stream_a = poisson_process(requests[:5], 1.0, 2.0, seed=5)
        stream_b = poisson_process(requests[5:], 1.0, 2.0, seed=6)
        merged = interleave(stream_a, stream_b)
        assert len(merged) == len(stream_a) + len(stream_b)
        keys = [e.sort_key() for e in merged]
        assert keys == sorted(keys)

    def test_departures_before_coincident_arrivals(self, requests):
        arrival = one_by_one(requests[:1])[0]
        from repro.workload import RequestEvent

        departure = RequestEvent(
            time=arrival.time, kind=EventKind.DEPARTURE, request=requests[1]
        )
        merged = interleave([arrival], [departure])
        assert merged[0].kind is EventKind.DEPARTURE
