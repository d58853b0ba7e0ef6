"""Overhead guard: disabled telemetry must stay within 5% of the baseline.

The observability contract (docs/OBSERVABILITY.md) promises that the span
and counter instrumentation threaded through ``Appro_Multi`` is free when
recording is off: every hot-path call site reduces to one module-global
boolean check.  This bench holds the code to that promise.

``repro bench`` (``repro.obs.bench.run_obs_benchmark``) records
``disabled_baseline_seconds`` — the best-of-rounds batch time for the
GÉANT workload with telemetry disabled — into ``BENCH_obs.json``.  This
test re-measures the same quantity on the same machine, immediately after
the artifact is written, and asserts the fresh measurement is within
``MAX_OVERHEAD`` (5%) of the recorded baseline.  Record-then-assert on one
runner keeps the check about *instrumentation drift*, not machine speed.
The guard only reads the artifact: when it is missing, the baseline is
measured in memory and nothing is written.

Like the other wall-clock benches, CI runs this in the non-blocking
benchmark job — timing noise must never block a merge.

The streaming extension of the same contract: a full online run with
recording *enabled*, the engine histograms live, and a ``SnapshotEmitter``
flushing JSONL deltas every N requests must cost at most 5% over the same
run with telemetry disabled.  ``repro bench --target stream-obs``
(``repro.obs.bench.run_stream_benchmark``) measures both sides on one
machine and records them under the ``"stream"`` key of ``BENCH_obs.json``;
:func:`check_stream_overhead` re-runs the measurement fresh, in memory,
and asserts the ratio.

Run without pytest::

    PYTHONPATH=src python -m repro.cli bench --output BENCH_obs.json
    PYTHONPATH=src python benchmarks/test_obs_overhead.py
"""

import json
import os

from repro.obs.bench import (
    DEFAULT_REQUESTS,
    DEFAULT_SEED,
    measure_disabled_seconds,
    run_stream_benchmark,
)

#: Fresh disabled-mode measurement may exceed the recorded baseline by
#: at most this fraction (the "within 5%" overhead contract).
MAX_OVERHEAD = 0.05

#: More rounds than the bench default: the guard's estimate should be the
#: more robust of the two, since it is the one that can fail a job.
GUARD_ROUNDS = 5

_HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_PATH = os.path.join(_HERE, "..", "BENCH_obs.json")


def _baseline_seconds():
    """Read the recorded baseline, measuring it in memory if absent."""
    if not os.path.exists(RESULT_PATH):
        return measure_disabled_seconds()
    with open(RESULT_PATH, encoding="utf-8") as handle:
        return json.load(handle)["disabled_baseline_seconds"]


def check_overhead():
    """Measure disabled-mode time and compare against the artifact."""
    baseline = _baseline_seconds()
    fresh = measure_disabled_seconds(
        requests=DEFAULT_REQUESTS, rounds=GUARD_ROUNDS, seed=DEFAULT_SEED
    )
    ratio = fresh / baseline if baseline > 0 else float("inf")
    return {
        "recorded_baseline_seconds": baseline,
        "fresh_disabled_seconds": fresh,
        "ratio": ratio,
        "max_allowed_ratio": 1.0 + MAX_OVERHEAD,
    }


def check_stream_overhead():
    """Measure the enabled-emitter stream run against its disabled twin.

    Re-measures rather than trusting the committed artifact so the check
    is about *this* tree's instrumentation.  The fresh numbers stay in
    memory: the guard never rewrites the artifact it checks.  Runs at the
    full default stream size: the emitter's fixed costs (sink setup, first
    flush) amortize over the stream, and a short run would measure those
    instead of the steady-state per-request overhead the contract is
    about.
    """
    payload = run_stream_benchmark(output_path=None, rounds=GUARD_ROUNDS)
    return {
        "disabled_seconds": payload["disabled_seconds"],
        "enabled_seconds": payload["enabled_seconds"],
        "ratio": payload["overhead_ratio"],
        "flushes": payload["flushes"],
        "max_allowed_ratio": 1.0 + MAX_OVERHEAD,
    }


def test_disabled_overhead_within_contract():
    result = check_overhead()
    print()
    print(json.dumps(result, indent=2, sort_keys=True))
    assert result["ratio"] <= result["max_allowed_ratio"], (
        f"disabled-mode run took {result['ratio']:.3f}x the recorded "
        f"baseline (limit {result['max_allowed_ratio']:.2f}x) — the "
        "instrumentation is no longer free when recording is off; "
        "see BENCH_obs.json and docs/OBSERVABILITY.md"
    )


def test_stream_overhead_within_contract():
    result = check_stream_overhead()
    print()
    print(json.dumps(result, indent=2, sort_keys=True))
    assert result["ratio"] <= result["max_allowed_ratio"], (
        f"enabled stream run (histograms + emitter, {result['flushes']} "
        f"flushes) took {result['ratio']:.3f}x the disabled run "
        f"(limit {result['max_allowed_ratio']:.2f}x) — the streaming "
        "telemetry is no longer within the 5% contract; see the 'stream' "
        "section of BENCH_obs.json and docs/OBSERVABILITY.md"
    )


if __name__ == "__main__":
    for label, outcome in (
        ("disabled", check_overhead()),
        ("stream", check_stream_overhead()),
    ):
        print(json.dumps(outcome, indent=2, sort_keys=True))
        status = (
            "PASS"
            if outcome["ratio"] <= outcome["max_allowed_ratio"]
            else "FAIL"
        )
        print(
            f"{status} ({label}): {outcome['ratio']:.3f}x "
            f"(limit {outcome['max_allowed_ratio']:.2f}x)"
        )
