"""Bounded-memory windowed aggregators for streaming telemetry.

Long-running admission services cannot afford end-of-run aggregates: the
streaming engine (ROADMAP item 1) needs p99 admission latency, rolling
admission rates, and per-window counts while the request stream is still
flowing, all in O(1) memory per metric.  This module provides the two
aggregator shapes the emitter and dashboard build on:

- :class:`FixedBucketHistogram` — observations land in a *fixed* set of
  buckets (no per-observation storage), with Prometheus-style cumulative
  ``le`` export and deterministic p50/p90/p99 extraction by linear
  interpolation inside the winning bucket.  Bucket counts are integers, so
  parallel merge (:meth:`MetricsRegistry.merge
  <repro.obs.registry.MetricsRegistry.merge>`) reproduces a serial run's
  counts bit-for-bit for any worker partition of a deterministic value
  stream.
- :class:`SlidingWindowCounter` — a ring of per-tick slots covering the
  last ``window`` ticks; the emitter advances it once per flush to derive
  rolling rates over a bounded horizon.

Neither class reads a clock: ticks and observations are supplied by the
caller, which is what keeps every derived value a pure function of the
event stream (and thus identical across reruns and worker counts).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "DEFAULT_COST_BOUNDS",
    "DEFAULT_LATENCY_BOUNDS",
    "FixedBucketHistogram",
    "SlidingWindowCounter",
]

#: Default bucket upper bounds for latency-shaped observations (seconds).
#: Spans 10 µs to 10 s in a 1–2.5–5 decade ladder; everything above the
#: last bound lands in the overflow bucket.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Default bucket upper bounds for cost-shaped observations (operational
#: cost units): a 1–2.5–5 ladder over four decades.
DEFAULT_COST_BOUNDS: Tuple[float, ...] = (
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class FixedBucketHistogram:
    """A histogram with fixed bucket boundaries and an overflow bucket.

    ``bounds`` are the inclusive upper edges of the finite buckets
    (Prometheus ``le`` semantics: a value equal to a bound counts in that
    bound's bucket); one extra overflow bucket catches everything larger,
    so ``len(counts) == len(bounds) + 1`` and memory never depends on the
    number of observations.

    Exact ``count``/``sum``/``min``/``max`` ride along so quantile
    estimates can be clamped to the observed range and mean extraction
    stays exact.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS
    ) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket bound")
        for lo, hi in zip(edges, edges[1:]):
            if not lo < hi:
                raise ValueError(
                    f"bucket bounds must be strictly increasing, got {edges}"
                )
        if edges[-1] != edges[-1] or edges[-1] == float("inf"):
            raise ValueError("bucket bounds must be finite")
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        """Fold one observation into its bucket (O(log buckets))."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- extraction -----------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact average observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (last == ``count``)."""
        cumulative: List[int] = []
        running = 0
        for bucket in self.counts:
            running += bucket
            cumulative.append(running)
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolation inside the bucket.

        Deterministic given the bucket counts: the target rank's bucket is
        found by a cumulative walk and the value is linearly interpolated
        between the bucket's edges (the first bucket's lower edge is 0, the
        overflow bucket reports the observed maximum).  Estimates are
        clamped to the observed ``[min, max]`` range.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.counts):
            if bucket == 0:
                continue
            below = running
            running += bucket
            if running >= target:
                if index == len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (target - below) / bucket
                estimate = lower + (upper - lower) * fraction
                return max(self.min, min(estimate, self.max))
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The dashboard trio: p50 / p90 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    # -- aggregation ----------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots and JSON export."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    def merge(self, data: Mapping[str, object]) -> None:
        """Fold an :meth:`as_dict` payload into this histogram.

        Bucket counts add (integers — merge order never changes them),
        sums add, min/max combine.  The payload's bounds must match
        exactly: merging histograms with different bucket ladders would
        silently misbin.

        Raises:
            ValueError: if the payload's bounds differ from this
                histogram's.
        """
        bounds = tuple(float(b) for b in data["bounds"])  # type: ignore[union-attr]
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{bounds} != {self.bounds}"
            )
        counts = data["counts"]
        for index, value in enumerate(counts):  # type: ignore[arg-type]
            self.counts[index] += int(value)
        merged_count = int(data.get("count", 0))  # type: ignore[arg-type]
        if not merged_count:
            return
        self.count += merged_count
        self.sum += float(data["sum"])  # type: ignore[arg-type]
        if float(data["min"]) < self.min:  # type: ignore[arg-type]
            self.min = float(data["min"])  # type: ignore[arg-type]
        if float(data["max"]) > self.max:  # type: ignore[arg-type]
            self.max = float(data["max"])  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"FixedBucketHistogram(buckets={len(self.counts)}, "
            f"count={self.count}, sum={self.sum:.6f})"
        )


class SlidingWindowCounter:
    """Event counts over the last ``window`` ticks, in O(window) memory.

    The caller defines what a tick is (the emitter uses one tick per
    flush; a per-request integration would tick per request): ``add``
    accumulates into the current tick's slot, ``advance`` rotates the ring
    and evicts the slot that falls off the horizon.  ``total`` is
    maintained incrementally, so both operations are O(1).
    """

    __slots__ = ("window", "_slots", "_head", "_total", "ticks")

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._slots: List[float] = [0.0] * window
        self._head = 0
        self._total = 0.0
        self.ticks = 0

    def add(self, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into the current tick's slot."""
        self._slots[self._head] += amount
        self._total += amount

    def advance(self, ticks: int = 1) -> None:
        """Move the window forward, evicting slots beyond the horizon."""
        for _ in range(min(ticks, self.window)):
            self._head = (self._head + 1) % self.window
            self._total -= self._slots[self._head]
            self._slots[self._head] = 0.0
        self.ticks += ticks

    @property
    def total(self) -> float:
        """Sum over the slots currently inside the window."""
        return self._total

    @property
    def covered(self) -> int:
        """How many ticks the window currently spans (≤ ``window``)."""
        return min(self.ticks + 1, self.window)

    def state(self) -> dict:
        """JSON-serializable snapshot of the ring (checkpoint support)."""
        return {
            "window": self.window,
            "slots": list(self._slots),
            "head": self._head,
            "ticks": self.ticks,
            # The running total is serialized rather than recomputed: the
            # incremental add/subtract order is part of the bit-identity
            # contract, and a fresh sum() could differ in the last ulp.
            "total": self._total,
        }

    def restore(self, state: dict) -> None:
        """Reset the ring to a :meth:`state` snapshot.

        The snapshot must come from a counter with the same ``window``;
        the derived total is recomputed from the restored slots.
        """
        if state["window"] != self.window:
            raise ValueError(
                f"cannot restore a window-{state['window']} snapshot into "
                f"a window-{self.window} counter"
            )
        self._slots = [float(s) for s in state["slots"]]
        self._head = int(state["head"])
        self.ticks = int(state["ticks"])
        self._total = float(state["total"])

    def rate(self) -> float:
        """Average amount per covered tick."""
        return self._total / self.covered

    def __repr__(self) -> str:
        return (
            f"SlidingWindowCounter(window={self.window}, "
            f"total={self._total:.6f}, ticks={self.ticks})"
        )
