"""The benchmark targets behind ``repro bench``.

Targets, selected with ``--target`` (the ``stream`` scale run lives in
:mod:`repro.stream.bench`):

``obs`` (default)
    Runs ``Appro_Multi`` over a seeded request batch on the GÉANT
    topology twice: once with telemetry **disabled**, timed
    best-of-``rounds`` (this records the ``disabled_baseline_seconds``
    that the CI overhead guard ``benchmarks/test_obs_overhead.py`` holds
    instrumented code to), and once with telemetry **enabled** to harvest
    the phase-timer hierarchy and counter totals.  Writes
    ``BENCH_obs.json``.

``stream-obs``
    The streaming-telemetry contract: an ``Online_CP`` arrival stream on
    GÉANT timed with telemetry disabled vs enabled-with-histograms plus a
    :class:`~repro.obs.emitter.SnapshotEmitter` flushing JSONL deltas.
    Merges a ``"stream"`` section into ``BENCH_obs.json``.

Run from the CLI::

    python -m repro.cli bench [--target obs|stream-obs|stream] [--quick]
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro import obs

#: The ``obs`` batch: a seeded GÉANT request set, timed best of ``rounds``.
DEFAULT_REQUESTS = 40
DEFAULT_ROUNDS = 3
DEFAULT_SEED = 20170605  # ICDCS 2017
TOPOLOGY = "GEANT"


def _batch(requests: int, seed: int):
    from repro.analysis.common import build_real_network, make_requests

    network = build_real_network(TOPOLOGY, seed)
    batch = make_requests(network.graph, requests, 0.2, seed + 1)
    return network, batch


def measure_disabled_seconds(
    requests: int = DEFAULT_REQUESTS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> float:
    """Best-of-``rounds`` batch wall time with telemetry disabled.

    This is the quantity the overhead contract bounds: the instrumented
    solver, with recording off, on a quiet machine.
    """
    from repro.core import appro_multi

    was_enabled = obs.enabled()
    obs.disable()
    try:
        network, batch = _batch(requests, seed)
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for request in batch:
                appro_multi(network, request, max_servers=3)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            obs.enable()


def run_obs_benchmark(
    output_path: Optional[str] = "BENCH_obs.json",
    requests: int = DEFAULT_REQUESTS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> Dict:
    """Run both measurement passes and (optionally) write the artifact."""
    from repro.core import appro_multi

    disabled_seconds = measure_disabled_seconds(requests, rounds, seed)

    # Enabled pass on a fresh network (cold caches, like round 1 above) so
    # phase totals cover the whole batch including Dijkstra fills.
    network, batch = _batch(requests, seed)
    was_enabled = obs.enabled()
    obs.enable()
    saved = obs.snapshot()
    obs.reset()
    start = time.perf_counter()
    for request in batch:
        appro_multi(network, request, max_servers=3)
    enabled_seconds = time.perf_counter() - start
    snap = obs.snapshot()
    obs.reset()
    obs.merge(saved)  # restore whatever the caller had accumulated
    if not was_enabled:
        obs.disable()

    payload = {
        "topology": TOPOLOGY,
        "requests": requests,
        "max_servers": 3,
        "seed": seed,
        "rounds": rounds,
        "timing": "whole batch, seconds; baseline is best-of-rounds",
        "disabled_baseline_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_ratio": (
            enabled_seconds / disabled_seconds
            if disabled_seconds > 0
            else float("inf")
        ),
        "counters": snap["counters"],
        "phases": snap["timers"],
    }
    if output_path:
        # Preserve the streaming section written by
        # ``run_stream_benchmark`` — both targets share this artifact.
        try:
            with open(output_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
        if "stream" in existing:
            payload["stream"] = existing["stream"]
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


def render_bench_summary(payload: Dict) -> List[str]:
    """Human-readable lines for the CLI to print after a bench run."""
    from repro.obs.export import render_phase_table

    lines = [
        f"topology: {payload['topology']}  requests: {payload['requests']}"
        f"  seed: {payload['seed']}",
        f"disabled baseline: {payload['disabled_baseline_seconds']:.4f}s"
        f"  (best of {payload['rounds']})",
        f"enabled run:       {payload['enabled_seconds']:.4f}s"
        f"  ({payload['enabled_overhead_ratio']:.3f}x baseline)",
        "",
        render_phase_table({"timers": payload["phases"]}),
    ]
    return lines


# --------------------------------------------------------------------------
# ``--target stream-obs``: Online_CP with histograms + emitter enabled
# --------------------------------------------------------------------------

#: Streaming defaults: a GÉANT ``Online_CP`` run long enough that the
#: per-request emitter tick dominates noise, flushed 10 times.
DEFAULT_STREAM_REQUESTS = 2000


def run_stream_benchmark(
    output_path: Optional[str] = "BENCH_obs.json",
    requests: int = DEFAULT_STREAM_REQUESTS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> Dict:
    """Streaming-telemetry overhead: emitter + histograms vs disabled.

    Times a GÉANT ``Online_CP`` arrival stream in ``rounds`` interleaved
    pairs: each round runs the stream once with telemetry disabled and no
    emitter (the baseline the 5% contract in
    ``benchmarks/test_obs_overhead.py`` extends to) and once with
    telemetry enabled, admission-latency/tree-cost histograms recording,
    and a :class:`~repro.obs.emitter.SnapshotEmitter` flushing JSONL
    deltas every ``requests // 10`` arrivals.  Admission counts must
    match between the passes (telemetry never steers a decision).

    Shared-runner timing noise easily exceeds the few-percent signal, so
    the headline ``overhead_ratio`` is the *median of per-round paired
    ratios*, with the in-round order alternating (disabled-first on even
    rounds, enabled-first on odd) so drift within a round penalizes both
    sides equally.  ``disabled_seconds``/``enabled_seconds`` report the
    per-side minima for scale.

    The result is merged into ``BENCH_obs.json`` under the ``"stream"``
    key (the batch-overhead numbers from ``--target obs`` are preserved).
    """
    import os
    import statistics
    import tempfile

    from repro.analysis.common import (
        build_real_network,
        calibrated_online_cp,
        make_requests,
    )
    from repro.obs.emitter import JsonlSink, SnapshotEmitter
    from repro.stream.engine import StreamEngine
    from repro.stream.workloads import SequenceStream

    if quick:
        requests = min(requests, 400)
        rounds = min(rounds, 2)
    every = max(1, requests // 10)

    def _arrivals():
        network = build_real_network(TOPOLOGY, seed)
        batch = make_requests(network.graph, requests, 0.2, seed + 1)
        return calibrated_online_cp(network), batch

    was_enabled = obs.enabled()
    saved = obs.snapshot()

    def _run_disabled():
        obs.disable()
        algorithm, batch = _arrivals()
        start = time.perf_counter()
        stats = StreamEngine(
            algorithm, SequenceStream(batch), clock=time.perf_counter
        ).run()
        return time.perf_counter() - start, stats.admitted, None

    def _run_enabled():
        obs.enable()
        obs.reset()
        algorithm, batch = _arrivals()
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            emitter = SnapshotEmitter(
                every_requests=every, sinks=[JsonlSink(path)]
            )
            start = time.perf_counter()
            stats = StreamEngine(
                algorithm,
                SequenceStream(batch),
                emitter=emitter,
                clock=time.perf_counter,
            ).run()
            emitter.finish()
            elapsed = time.perf_counter() - start
        finally:
            os.unlink(path)
        return elapsed, stats.admitted, emitter.seq

    # one untimed warm-up stream so import/alloc costs hit neither side
    _run_disabled()

    ratios = []
    disabled_best = enabled_best = float("inf")
    disabled_admitted = enabled_admitted = flushes = 0
    for index in range(rounds):
        sides = [_run_disabled, _run_enabled]
        if index % 2:
            sides.reverse()
        outcomes = {}
        for side in sides:
            outcomes[side] = side()
        disabled_seconds, disabled_admitted, _ = outcomes[_run_disabled]
        enabled_seconds, enabled_admitted, flushes = outcomes[_run_enabled]
        disabled_best = min(disabled_best, disabled_seconds)
        enabled_best = min(enabled_best, enabled_seconds)
        ratios.append(
            enabled_seconds / disabled_seconds
            if disabled_seconds > 0
            else float("inf")
        )
    obs.reset()
    obs.merge(saved)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()

    stream = {
        "topology": TOPOLOGY,
        "requests": requests,
        "every_requests": every,
        "seed": seed,
        "rounds": rounds,
        "quick": quick,
        "timing": (
            "interleaved disabled/enabled Online_CP arrival-stream pairs; "
            "seconds are per-side minima, overhead_ratio the median of "
            "per-round paired ratios; enabled pass records histograms "
            "and flushes JSONL deltas"
        ),
        "disabled_seconds": disabled_best,
        "enabled_seconds": enabled_best,
        "round_ratios": ratios,
        "overhead_ratio": statistics.median(ratios),
        "flushes": flushes,
        "disabled_admitted": disabled_admitted,
        "enabled_admitted": enabled_admitted,
    }
    if output_path:
        payload: Dict = {}
        try:
            with open(output_path, "r", encoding="utf-8") as handle2:
                payload = json.load(handle2)
        except (OSError, ValueError):
            payload = {}
        payload["stream"] = stream
        with open(output_path, "w", encoding="utf-8") as handle2:
            json.dump(payload, handle2, indent=2, sort_keys=True)
            handle2.write("\n")
    return stream


def render_stream_summary(payload: Dict) -> List[str]:
    """Human-readable lines for the stream-obs bench payload."""
    return [
        f"stream {payload['topology']}: {payload['requests']} requests, "
        f"flush every {payload['every_requests']} "
        f"({payload['flushes']} flushes)",
        f"disabled: {payload['disabled_seconds']:.4f}s  "
        f"enabled+emitter: {payload['enabled_seconds']:.4f}s  "
        f"ratio {payload['overhead_ratio']:.3f}x",
        f"admitted: disabled {payload['disabled_admitted']} / "
        f"enabled {payload['enabled_admitted']} (must match)",
    ]
