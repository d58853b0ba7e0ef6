"""Unit tests for the bounded-memory windowed aggregators."""

import pytest

from repro.obs.window import (
    DEFAULT_COST_BOUNDS,
    DEFAULT_LATENCY_BOUNDS,
    FixedBucketHistogram,
    SlidingWindowCounter,
)


class TestHistogramRecording:
    def test_le_semantics_value_on_bound_counts_in_that_bucket(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.counts == [1, 0, 0]

    def test_value_above_bound_lands_in_next_bucket(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        histogram.observe(1.5)
        assert histogram.counts == [0, 1, 0]

    def test_overflow_bucket_catches_everything_larger(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        histogram.observe(1e9)
        assert histogram.counts == [0, 0, 1]

    def test_exact_count_sum_min_max_ride_along(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 0.5 + 1.5 + 3.0
        assert histogram.min == 0.5
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(5.0 / 3.0)

    def test_memory_never_grows_with_observations(self):
        histogram = FixedBucketHistogram((1.0,))
        for i in range(10_000):
            histogram.observe(float(i))
        assert len(histogram.counts) == 2
        assert histogram.count == 10_000

    def test_cumulative_counts_end_at_total(self):
        histogram = FixedBucketHistogram((1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5, 9.0):
            histogram.observe(value)
        assert histogram.cumulative_counts() == [1, 2, 3, 4]

    def test_default_ladders_are_valid(self):
        FixedBucketHistogram(DEFAULT_LATENCY_BOUNDS)
        FixedBucketHistogram(DEFAULT_COST_BOUNDS)


class TestHistogramValidation:
    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram(())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram((1.0, 1.0))

    def test_rejects_infinite_bound(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram((1.0, float("inf")))


class TestQuantiles:
    def test_empty_histogram_reports_zero(self):
        assert FixedBucketHistogram((1.0,)).quantile(0.5) == 0.0

    def test_extreme_q_returns_observed_min_and_max(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        histogram.observe(0.25)
        histogram.observe(1.75)
        assert histogram.quantile(0.0) == 0.25
        assert histogram.quantile(1.0) == 1.75

    def test_interpolates_inside_the_winning_bucket(self):
        histogram = FixedBucketHistogram((10.0,))
        for i in range(10):
            histogram.observe(float(i + 1))
        # rank 5 of 10 inside the (0, 10] bucket → linear midpoint
        assert histogram.quantile(0.5) == pytest.approx(5.0)

    def test_estimate_clamped_to_observed_range(self):
        histogram = FixedBucketHistogram((10.0,))
        histogram.observe(2.0)
        histogram.observe(3.0)
        estimate = histogram.quantile(0.9)
        assert 2.0 <= estimate <= 3.0

    def test_overflow_bucket_quantile_is_observed_max(self):
        histogram = FixedBucketHistogram((1.0,))
        for value in (5.0, 7.0, 42.0):
            histogram.observe(value)
        assert histogram.quantile(0.99) == 42.0

    def test_percentile_trio(self):
        histogram = FixedBucketHistogram(DEFAULT_LATENCY_BOUNDS)
        for i in range(100):
            histogram.observe(0.001 * (i + 1))
        p = histogram.percentiles()
        assert set(p) == {"p50", "p90", "p99"}
        assert p["p50"] <= p["p90"] <= p["p99"]

    def test_quantiles_are_deterministic(self):
        first = FixedBucketHistogram((0.5, 1.0, 5.0))
        second = FixedBucketHistogram((0.5, 1.0, 5.0))
        for value in (0.1, 0.7, 0.9, 2.0, 4.5, 6.0):
            first.observe(value)
            second.observe(value)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert first.quantile(q) == second.quantile(q)


class TestHistogramMerge:
    def test_merge_adds_bucket_counts_bit_exactly(self):
        whole = FixedBucketHistogram((1.0, 2.0))
        left = FixedBucketHistogram((1.0, 2.0))
        right = FixedBucketHistogram((1.0, 2.0))
        values = [0.5, 1.5, 2.5, 0.1, 1.9]
        for value in values:
            whole.observe(value)
        for value in values[:2]:
            left.observe(value)
        for value in values[2:]:
            right.observe(value)
        merged = FixedBucketHistogram((1.0, 2.0))
        merged.merge(left.as_dict())
        merged.merge(right.as_dict())
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.sum == whole.sum
        assert merged.min == whole.min
        assert merged.max == whole.max

    def test_merge_order_does_not_change_counts(self):
        parts = []
        for shift in range(3):
            part = FixedBucketHistogram((1.0, 2.0))
            part.observe(0.5 + shift)
            parts.append(part.as_dict())
        forward = FixedBucketHistogram((1.0, 2.0))
        backward = FixedBucketHistogram((1.0, 2.0))
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward.counts == backward.counts

    def test_merge_empty_payload_keeps_min_sentinel(self):
        histogram = FixedBucketHistogram((1.0,))
        histogram.merge(FixedBucketHistogram((1.0,)).as_dict())
        assert histogram.count == 0
        assert histogram.min == float("inf")

    def test_merge_rejects_different_bounds(self):
        histogram = FixedBucketHistogram((1.0, 2.0))
        other = FixedBucketHistogram((1.0, 3.0))
        with pytest.raises(ValueError):
            histogram.merge(other.as_dict())

    def test_as_dict_round_trips_through_merge(self):
        histogram = FixedBucketHistogram((0.5, 1.0))
        for value in (0.2, 0.7, 9.0):
            histogram.observe(value)
        clone = FixedBucketHistogram((0.5, 1.0))
        clone.merge(histogram.as_dict())
        assert clone.as_dict() == histogram.as_dict()

    def test_empty_as_dict_reports_zero_min(self):
        data = FixedBucketHistogram((1.0,)).as_dict()
        assert data["min"] == 0.0
        assert data["count"] == 0


class TestSlidingWindowCounter:
    def test_total_within_window(self):
        window = SlidingWindowCounter(3)
        window.add(2.0)
        window.advance()
        window.add(3.0)
        assert window.total == 5.0

    def test_old_slots_fall_off_the_horizon(self):
        window = SlidingWindowCounter(2)
        window.add(10.0)
        window.advance()
        window.add(1.0)
        window.advance()  # the 10.0 slot is evicted here
        window.add(1.0)
        assert window.total == 2.0

    def test_rate_divides_by_covered_ticks(self):
        window = SlidingWindowCounter(4)
        window.add(6.0)
        window.advance()
        window.add(0.0)
        assert window.covered == 2
        assert window.rate() == 3.0

    def test_covered_saturates_at_window(self):
        window = SlidingWindowCounter(2)
        for _ in range(5):
            window.advance()
        assert window.covered == 2

    def test_advance_many_ticks_clears_everything(self):
        window = SlidingWindowCounter(3)
        window.add(7.0)
        window.advance(10)
        assert window.total == 0.0

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            SlidingWindowCounter(0)
