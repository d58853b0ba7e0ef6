"""End-to-end telemetry: solver counters, engine telemetry, parallel merge.

The headline contract: a seeded figure run reports **identical counter
totals** for every ``--workers`` value, because pool workers snapshot
per-point registries and the parent merges them additively
(:mod:`repro.simulation.parallel`).
"""

import pytest

from repro import obs
from repro.analysis.fig5 import run_fig5
from repro.analysis.profiles import get_profile
from repro.core import OnlineCP, appro_multi
from repro.network import build_sdn
from repro.simulation import (
    run_offline,
    set_default_workers,
)
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Run each test with fresh, enabled telemetry; restore state after."""
    saved = obs.snapshot()
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.merge(saved)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    set_default_workers(None)


def _fig5_counters(workers):
    obs.reset()
    set_default_workers(workers)
    run_fig5(get_profile("fast"))
    return obs.counters()


def _fig5_histograms(workers):
    obs.reset()
    set_default_workers(workers)
    run_fig5(get_profile("fast"))
    return obs.snapshot()["histograms"]


class TestParallelAggregation:
    def test_worker_count_does_not_change_counter_totals(self):
        serial = _fig5_counters(1)
        assert serial["appro_multi.invocations"] > 0
        assert serial["fasteval.kmb_trees"] > 0
        assert serial["spcache.hits"] + serial["spcache.misses"] > 0
        try:
            pooled = _fig5_counters(4)
        except Exception:  # pragma: no cover - sandboxes without semaphores
            pytest.skip("process pool unavailable in this environment")
        assert pooled == serial

    def test_timer_call_counts_match_across_worker_counts(self):
        obs.reset()
        set_default_workers(1)
        run_fig5(get_profile("fast"))
        serial = {
            name: stat["count"]
            for name, stat in obs.snapshot()["timers"].items()
        }
        obs.reset()
        set_default_workers(2)
        try:
            run_fig5(get_profile("fast"))
        except Exception:  # pragma: no cover - sandboxes without semaphores
            pytest.skip("process pool unavailable in this environment")
        pooled = {
            name: stat["count"]
            for name, stat in obs.snapshot()["timers"].items()
        }
        assert pooled == serial

    def test_histogram_buckets_bit_identical_across_worker_counts(self):
        serial = _fig5_histograms(1)
        cost = serial["engine.tree_cost"]
        assert cost["count"] > 0
        try:
            pooled = _fig5_histograms(4)
        except Exception:  # pragma: no cover - sandboxes without semaphores
            pytest.skip("process pool unavailable in this environment")
        # tree cost is a deterministic value stream: integer bucket
        # counts and order-independent min/max merge bit-identically
        # regardless of how the pool partitioned the grid; the float sum
        # regroups per worker, so it only agrees to rounding
        merged = pooled["engine.tree_cost"]
        assert merged["bounds"] == cost["bounds"]
        assert merged["counts"] == cost["counts"]
        assert merged["count"] == cost["count"]
        assert merged["min"] == cost["min"]
        assert merged["max"] == cost["max"]
        assert merged["sum"] == pytest.approx(cost["sum"])
        # admission latency is wall-clock-valued: bucket placement varies
        # run to run, but every observation is still merged exactly once
        assert (
            pooled["engine.admission_seconds"]["count"]
            == serial["engine.admission_seconds"]["count"]
        )


class TestSolverCounters:
    def test_appro_multi_records_phases_and_counters(self):
        graph = gt_itm_flat(30, seed=11)
        network = build_sdn(graph, seed=11)
        request = generate_workload(graph, 1, dmax_ratio=0.15, seed=12)[0]
        appro_multi(network, request, max_servers=3)
        counts = obs.counters()
        assert counts["appro_multi.invocations"] == 1.0
        assert counts["appro_multi.combinations_evaluated"] >= 1.0
        timers = obs.snapshot()["timers"]
        assert "appro_multi" in timers
        assert "appro_multi.aux_build" in timers
        assert "appro_multi.enumerate" in timers
        assert "appro_multi.evaluate" in timers

    def test_kmb_spans_nest_under_evaluate(self):
        graph = gt_itm_flat(30, seed=11)
        network = build_sdn(graph, seed=11)
        request = generate_workload(graph, 1, dmax_ratio=0.2, seed=12)[0]
        appro_multi(network, request, max_servers=3)
        timers = obs.snapshot()["timers"]
        assert "appro_multi.evaluate.kmb" in timers
        assert "appro_multi.evaluate.kmb.prune" in timers

    def test_spcache_hits_and_misses_surface(self):
        graph = gt_itm_flat(30, seed=11)
        network = build_sdn(graph, seed=11)
        requests = generate_workload(graph, 3, dmax_ratio=0.15, seed=12)
        for request in requests:
            appro_multi(network, request, max_servers=3)
        counts = obs.counters()
        assert counts.get("spcache.misses", 0) > 0
        # repeated requests on one network re-use cached Dijkstra trees
        assert counts.get("spcache.hits", 0) > 0


class TestEngineTelemetry:
    def test_offline_stats_carry_counter_deltas(self):
        graph = gt_itm_flat(25, seed=21)
        network = build_sdn(graph, seed=21)
        requests = generate_workload(graph, 4, dmax_ratio=0.15, seed=22)
        stats = run_offline(appro_multi, network, requests)
        assert stats.telemetry["engine.requests"] == 4.0
        assert stats.telemetry["appro_multi.invocations"] == 4.0
        assert (
            stats.telemetry["engine.solved"]
            + stats.telemetry.get("engine.infeasible", 0.0)
            == 4.0
        )

    def test_online_stats_carry_counter_deltas(self):
        graph = gt_itm_flat(25, seed=21)
        network = build_sdn(graph, seed=21)
        requests = generate_workload(graph, 10, dmax_ratio=0.15, seed=22)
        before = obs.counters()
        StreamEngine(OnlineCP(network), SequenceStream(requests)).run()
        telemetry = obs.counters_since(before)
        assert telemetry["online.decisions"] == 10.0
        assert (
            telemetry.get("online.admitted", 0.0)
            + telemetry.get("online.rejected", 0.0)
            == 10.0
        )

    def test_telemetry_empty_when_disabled(self):
        obs.disable()
        graph = gt_itm_flat(25, seed=21)
        network = build_sdn(graph, seed=21)
        requests = generate_workload(graph, 2, dmax_ratio=0.15, seed=22)
        stats = run_offline(appro_multi, network, requests)
        assert stats.telemetry == {}
