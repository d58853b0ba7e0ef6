"""Unit tests for failure event streams and their ordering contract."""

import pytest

from repro.exceptions import SimulationError
from repro.nfv import FunctionType, ServiceChain
from repro.resilience.events import (
    ElementKind,
    apply_event,
    deterministic_schedule,
    exponential_failures,
    horizon_of,
    link_failure,
    link_recovery,
    server_failure,
    server_recovery,
)
from repro.workload import MulticastRequest
from repro.workload.arrivals import EventKind, RequestEvent, interleave


def _request(request_id=1):
    return MulticastRequest.create(
        request_id=request_id,
        source="s",
        destinations=["d1"],
        bandwidth=10.0,
        chain=ServiceChain.of(FunctionType.NAT),
    )


class TestOrdering:
    def test_rank_order_at_equal_time(self):
        t = 5.0
        request = _request()
        events = [
            RequestEvent(t, EventKind.ARRIVAL, request),
            RequestEvent(t, EventKind.DEPARTURE, request),
            link_failure(t, "a", "b"),
            link_recovery(t, "c", "d"),
        ]
        merged = interleave(events)
        kinds = [
            getattr(e, "kind", None) or ("up" if e.up else "down")
            for e in merged
        ]
        assert kinds == [
            "up", "down", EventKind.DEPARTURE, EventKind.ARRIVAL
        ]

    def test_interleave_is_total_and_deterministic(self):
        failures = [link_failure(2.0, "a", "b"), server_failure(2.0, "x")]
        workload = [
            RequestEvent(2.0, EventKind.ARRIVAL, _request(i))
            for i in (3, 1, 2)
        ]
        merged_a = interleave(workload, failures)
        merged_b = interleave(list(reversed(workload)), failures)
        assert [e.sort_key() for e in merged_a] == sorted(
            e.sort_key() for e in merged_a
        )
        # arrival ties broken by request id, independent of input order
        ids = [
            e.request.request_id
            for e in merged_a
            if isinstance(e, RequestEvent)
        ]
        assert ids == [1, 2, 3]
        assert [e.sort_key() for e in merged_b] == [
            e.sort_key() for e in merged_a
        ]

    def test_mixed_id_types_sort_without_raising(self):
        events = [
            RequestEvent(1.0, EventKind.ARRIVAL, _request(request_id=7)),
            RequestEvent(1.0, EventKind.ARRIVAL, _request(request_id="r9")),
        ]
        merged = interleave(events)
        assert len(merged) == 2  # no TypeError on int-vs-str tie-break

    def test_edge_key_canonicalized(self):
        assert link_failure(1.0, "b", "a").target == link_failure(
            1.0, "a", "b"
        ).target


class TestDeterministicSchedule:
    def test_orders_and_accepts_alternation(self):
        events = deterministic_schedule([
            link_recovery(5.0, "a", "b"),
            link_failure(2.0, "a", "b"),
            server_failure(3.0, "x"),
        ])
        assert [e.time for e in events] == [2.0, 3.0, 5.0]

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            deterministic_schedule([link_failure(-1.0, "a", "b")])

    def test_rejects_double_failure(self):
        with pytest.raises(SimulationError):
            deterministic_schedule([
                link_failure(1.0, "a", "b"),
                link_failure(2.0, "a", "b"),
            ])

    def test_rejects_recovery_of_healthy_element(self):
        with pytest.raises(SimulationError):
            deterministic_schedule([server_recovery(1.0, "x")])


class TestExponentialFailures:
    def test_deterministic_and_alternating(self, toy_network):
        events_a = exponential_failures(
            toy_network, mean_time_to_failure=10.0,
            mean_time_to_repair=2.0, horizon=50.0, seed=3,
        )
        events_b = exponential_failures(
            toy_network, mean_time_to_failure=10.0,
            mean_time_to_repair=2.0, horizon=50.0, seed=3,
        )
        assert events_a == events_b
        assert events_a  # the horizon is long enough to produce incidents
        assert all(0.0 <= e.time < 50.0 for e in events_a)
        deterministic_schedule(events_a)  # alternation is valid per element

    def test_servers_only(self, toy_network):
        events = exponential_failures(
            toy_network, mean_time_to_failure=5.0,
            mean_time_to_repair=1.0, horizon=100.0, seed=1,
            links=False, servers=True,
        )
        assert events
        assert all(e.element is ElementKind.SERVER for e in events)

    def test_fraction_limits_targets(self, toy_network):
        events = exponential_failures(
            toy_network, mean_time_to_failure=1.0,
            mean_time_to_repair=1.0, horizon=200.0, seed=2,
            fraction=0.15,
        )
        assert len({e.target for e in events}) == 1  # 15% of 7 links

    def test_validates_parameters(self, toy_network):
        for kwargs in (
            {"mean_time_to_failure": 0.0},
            {"mean_time_to_repair": -1.0},
            {"horizon": 0.0},
            {"fraction": 0.0},
            {"fraction": 1.5},
        ):
            merged = {
                "mean_time_to_failure": 1.0,
                "mean_time_to_repair": 1.0,
                "horizon": 10.0,
                **kwargs,
            }
            with pytest.raises(SimulationError):
                exponential_failures(toy_network, **merged)


class TestApplyEvent:
    def test_link_failure_and_recovery(self, toy_network):
        assert apply_event(toy_network, link_failure(1.0, "a", "b"))
        assert not toy_network.link_is_up("a", "b")
        # re-failing a down link is a no-op
        assert not apply_event(toy_network, link_failure(2.0, "a", "b"))
        assert apply_event(toy_network, link_recovery(3.0, "a", "b"))
        assert toy_network.link_is_up("a", "b")

    def test_server_failure_blocks_allocation(self, toy_network):
        apply_event(toy_network, server_failure(1.0, "b"))
        assert not toy_network.server_is_up("b")
        assert not toy_network.server("b").can_allocate(1.0)
        assert "b" not in toy_network.feasible_servers(1.0)
        apply_event(toy_network, server_recovery(2.0, "b"))
        assert toy_network.server("b").can_allocate(1.0)


class TestHorizon:
    def test_latest_time_across_streams(self):
        workload = [RequestEvent(4.0, EventKind.ARRIVAL, _request())]
        failures = [link_failure(9.0, "a", "b")]
        assert horizon_of(workload, failures) == 9.0
        assert horizon_of([]) == 0.0


class TestEpochSafety:
    """Failures must invalidate every residual-derived path cache."""

    def test_failure_and_recovery_bump_epoch(self, toy_network):
        epoch = toy_network.epoch
        assert toy_network.fail_link("b", "c")
        assert toy_network.epoch == epoch + 1
        # no-op transitions must NOT bump (they change nothing cached)
        assert not toy_network.fail_link("b", "c")
        assert toy_network.epoch == epoch + 1
        assert toy_network.recover_link("b", "c")
        assert toy_network.epoch == epoch + 2

    def test_cache_never_serves_path_through_failed_link(self, toy_network):
        cache = toy_network.residual_path_cache(min_bandwidth=1.0)
        path = cache.tree("s").path_to("d1")
        assert path == ["s", "a", "b", "c", "d1"]
        toy_network.fail_link("b", "c")
        fresh = toy_network.residual_path_cache(min_bandwidth=1.0)
        assert fresh is not cache or fresh.graph is not cache.graph
        assert not fresh.graph.has_edge("b", "c")
        detour = fresh.tree("s").path_to("d1")
        assert ("b", "c") not in set(zip(detour, detour[1:]))
        assert ("c", "b") not in set(zip(detour, detour[1:]))

    def test_failed_link_excluded_from_residual_graph(self, toy_network):
        toy_network.fail_link("c", "d1")
        residual = toy_network.residual_graph()
        assert not residual.has_edge("c", "d1")
        toy_network.recover_link("c", "d1")
        assert toy_network.residual_graph().has_edge("c", "d1")
