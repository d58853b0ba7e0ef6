"""The streaming-telemetry acceptance run (ISSUE 7 contract).

One 10k-request GÉANT ``Online_CP`` arrival stream with the emitter,
histograms, and tracing all enabled, then every downstream artifact is
checked against it:

- the JSONL delta stream sums back to the final cumulative snapshot
  **bit-for-bit** (counters, histogram buckets/count/sum, timer
  count/total);
- the flight-recorder ring stays bounded at its configured size;
- the Chrome trace nests request umbrellas around their phase spans and
  carries the admit/reject instants;
- the dashboard renders p50/p99 admission latency and the rolling
  admission rate from the same stream.

The run itself executes once (module-scoped fixture); the tests assert
on its artifacts.
"""

import json
import time

import pytest

from repro import obs
from repro.analysis.common import (
    build_real_network,
    calibrated_online_cp,
    make_requests,
)
from repro.obs.dashboard import DashboardState, render, watch
from repro.obs.emitter import JsonlSink, SnapshotEmitter, sum_deltas
from repro.obs.export import to_chrome_trace
from repro.obs.tracing import start_trace, stop_trace
from repro.stream import SequenceStream, StreamEngine

REQUESTS = 10_000
EVERY = 1_000
RING_SIZE = 4
SEED = 20170605


class StreamRun:
    """Everything the acceptance tests inspect, from one run."""

    def __init__(self, stats, payloads, final_snapshot, ring, trace_log):
        self.stats = stats
        self.payloads = payloads
        self.final_snapshot = final_snapshot
        self.ring = ring
        self.trace_log = trace_log


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    jsonl = tmp_path_factory.mktemp("stream") / "run.jsonl"
    saved = obs.snapshot()
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    log = start_trace()
    try:
        network = build_real_network("GEANT", SEED)
        requests = make_requests(network.graph, REQUESTS, 0.2, SEED + 1)
        algorithm = calibrated_online_cp(network)
        with SnapshotEmitter(
            every_requests=EVERY,
            ring_size=RING_SIZE,
            sinks=[JsonlSink(str(jsonl))],
        ) as emitter:
            stats = StreamEngine(
                algorithm,
                SequenceStream(requests),
                emitter=emitter,
                clock=time.perf_counter,
            ).run()
        payloads = [
            json.loads(line)
            for line in jsonl.read_text().strip().splitlines()
        ]
        final_snapshot = obs.snapshot()
        ring = emitter.ring()
    finally:
        stop_trace()
        obs.reset()
        obs.merge(saved)
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
    return StreamRun(stats, payloads, final_snapshot, ring, log)


class TestStreamContract:
    def test_every_request_was_decided(self, stream_run):
        assert stream_run.stats.admitted + stream_run.stats.rejected == (
            REQUESTS
        )
        assert stream_run.stats.admitted > 0

    def test_flush_cadence_and_final_payload(self, stream_run):
        payloads = stream_run.payloads
        # 10 interval flushes plus the context manager's final flush
        assert len(payloads) == REQUESTS // EVERY + 1
        assert [p["seq"] for p in payloads] == list(range(len(payloads)))
        assert payloads[-1]["reason"] == "final"
        assert all(p["reason"] == "interval" for p in payloads[:-1])
        assert payloads[-1]["total_requests"] == REQUESTS

    def test_summed_deltas_equal_final_snapshot_bit_for_bit(
        self, stream_run
    ):
        rebuilt = sum_deltas(stream_run.payloads)
        final = stream_run.final_snapshot
        assert rebuilt["counters"] == final["counters"]
        for name, expected in final["histograms"].items():
            data = rebuilt["histograms"][name]
            assert data["bounds"] == expected["bounds"]
            assert data["counts"] == expected["counts"]
            assert data["count"] == expected["count"]
            assert data["sum"] == expected["sum"]
            assert data["min"] == expected["min"]
            assert data["max"] == expected["max"]
        for name, expected in final["timers"].items():
            data = rebuilt["timers"][name]
            assert data["count"] == expected["count"]
            assert data["total"] == expected["total"]

    def test_latency_and_cost_histograms_filled(self, stream_run):
        histograms = stream_run.final_snapshot["histograms"]
        assert histograms["engine.admission_seconds"]["count"] == REQUESTS
        assert (
            histograms["engine.tree_cost"]["count"]
            == stream_run.stats.admitted
        )

    def test_ring_is_bounded_and_holds_latest_payloads(self, stream_run):
        assert len(stream_run.ring) == RING_SIZE
        total = REQUESTS // EVERY + 1
        assert [p["seq"] for p in stream_run.ring] == list(
            range(total - RING_SIZE, total)
        )


class TestTraceContract:
    def test_request_umbrellas_nest_phase_spans(self, stream_run):
        events = to_chrome_trace(stream_run.trace_log)["traceEvents"]
        by_request = {}
        for event in events:
            if event["ph"] != "X":
                continue
            rid = event.get("args", {}).get("request_id")
            if rid is not None:
                by_request.setdefault(rid, []).append(event)
        assert by_request
        checked = 0
        for rid, spans in by_request.items():
            umbrella = next(
                (s for s in spans if s["name"] == f"request {rid}"), None
            )
            if umbrella is None:
                continue  # dropped by the bound — fine for late requests
            end = umbrella["ts"] + umbrella["dur"]
            for span in spans:
                if span is umbrella:
                    continue
                assert span["ts"] >= umbrella["ts"]
                assert span["ts"] + span["dur"] <= end + 1e-6
            checked += 1
            if checked >= 50:
                break
        assert checked > 0

    def test_decision_instants_present(self, stream_run):
        names = {i[0] for i in stream_run.trace_log.instants}
        assert "engine.admit" in names
        assert "engine.reject" in names
        assert "emitter.flush" in names

    def test_phase_spans_carry_request_ids(self, stream_run):
        phase_spans = [
            span
            for span in stream_run.trace_log.spans
            if span[0].endswith("online_decide") and span[3] is not None
        ]
        assert phase_spans

    def test_log_stays_bounded(self, stream_run):
        log = stream_run.trace_log
        assert len(log) <= log.max_events


class TestDashboardContract:
    def test_dashboard_renders_percentiles_and_rate(self, stream_run):
        state = DashboardState()
        for payload in stream_run.payloads:
            state.consume(payload)
        frame = render(state)
        assert "p50" in frame and "p99" in frame
        assert "latency" in frame
        assert "admission" in frame
        assert "rate trend" in frame
        assert state.admission_rate > 0.0

    def test_watch_folds_the_stream_file(self, stream_run, tmp_path):
        import io

        path = tmp_path / "replay.jsonl"
        path.write_text(
            "".join(
                json.dumps(p) + "\n" for p in stream_run.payloads
            )
        )
        out = io.StringIO()
        state = watch(str(path), out=out)
        assert state.payloads == len(stream_run.payloads)
        decisions = state.counters["online.decisions"]
        assert decisions == float(REQUESTS)
