"""Observability: solver-wide counters, phase spans, and exporters.

The standing telemetry harness every perf/robustness change reports
against (see ``docs/OBSERVABILITY.md`` for the metric catalogue, the span
hierarchy, the overhead contract, and the exporter formats).

Usage from instrumented code (hot-path contract: import the helpers once
at module top, call them unconditionally — they no-op while disabled)::

    from repro.obs import inc as _obs_inc, span as _obs_span

    with _obs_span("kmb"):
        _obs_inc("kmb.calls")
        ...

Usage from drivers::

    from repro import obs

    obs.enable()
    ...run experiments...
    payload = obs.snapshot()
"""

from repro.obs.dashboard import DashboardState, render, sparkline, watch
from repro.obs.emitter import (
    JsonlSink,
    PrometheusSink,
    SnapshotEmitter,
    sum_deltas,
)
from repro.obs.export import (
    parse_prometheus,
    render_phase_table,
    to_chrome_trace,
    to_json,
    to_prometheus,
    write_chrome_trace,
    write_json,
    write_prometheus,
)
from repro.obs.registry import (
    NULL_SPAN,
    MetricsRegistry,
    Span,
    TimerStat,
    counters,
    counters_since,
    disable,
    enable,
    enabled,
    gauge,
    hist,
    inc,
    merge,
    observe,
    registry,
    reset,
    snapshot,
    span,
)
from repro.obs.tracing import (
    TraceLog,
    active_trace,
    current_request,
    request_scope,
    start_trace,
    stop_trace,
    trace_instant,
)
from repro.obs.window import (
    DEFAULT_COST_BOUNDS,
    DEFAULT_LATENCY_BOUNDS,
    FixedBucketHistogram,
    SlidingWindowCounter,
)

__all__ = [
    "DEFAULT_COST_BOUNDS",
    "DEFAULT_LATENCY_BOUNDS",
    "DashboardState",
    "FixedBucketHistogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "PrometheusSink",
    "SlidingWindowCounter",
    "SnapshotEmitter",
    "Span",
    "TimerStat",
    "TraceLog",
    "active_trace",
    "counters",
    "counters_since",
    "current_request",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "hist",
    "inc",
    "merge",
    "observe",
    "parse_prometheus",
    "registry",
    "render",
    "render_phase_table",
    "request_scope",
    "reset",
    "snapshot",
    "span",
    "sparkline",
    "start_trace",
    "stop_trace",
    "sum_deltas",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
    "trace_instant",
    "watch",
    "write_chrome_trace",
    "write_json",
    "write_prometheus",
]
