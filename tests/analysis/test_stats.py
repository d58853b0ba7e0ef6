"""Unit tests for statistics helpers."""

import math

import pytest

from repro.analysis import (
    aggregate_over_seeds,
    curves_with_confidence,
    summarize,
    t_quantile_975,
)


class TestSummarize:
    def test_single_value(self):
        summary = summarize([4.0])
        assert summary.mean == 4.0
        assert summary.stdev == 0.0
        assert summary.ci95 == 0.0
        assert summary.low == summary.high == 4.0

    def test_known_sample(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == pytest.approx(3.0)
        assert summary.stdev == pytest.approx(math.sqrt(2.5))
        # t(4, 0.975) = 2.776
        assert summary.ci95 == pytest.approx(
            2.776 * math.sqrt(2.5) / math.sqrt(5), rel=1e-3
        )
        assert summary.low < summary.mean < summary.high

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_constant_sample(self):
        summary = summarize([7.0] * 10)
        assert summary.stdev == 0.0
        assert summary.ci95 == 0.0


class TestTQuantile:
    def test_table_values(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(30) == pytest.approx(2.042)

    def test_normal_limit(self):
        assert t_quantile_975(500) == pytest.approx(1.96)

    def test_decreasing(self):
        values = [t_quantile_975(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            t_quantile_975(0)


class TestAggregateOverSeeds:
    def test_deterministic_measure(self):
        result = aggregate_over_seeds(
            lambda seed: {"alpha": 10.0, "beta": seed * 1.0},
            seeds=[1, 2, 3],
            figure_id="agg",
            title="test",
        )
        assert result.xs == [0, 1]  # alpha, beta sorted
        means = result.series_by_label("mean").values
        cis = result.series_by_label("ci95").values
        assert means[0] == pytest.approx(10.0)  # alpha constant
        assert cis[0] == 0.0
        assert means[1] == pytest.approx(2.0)  # beta = mean(1,2,3)
        assert cis[1] > 0.0

    def test_no_seeds_raises(self):
        with pytest.raises(ValueError):
            aggregate_over_seeds(lambda s: {}, [], "x", "t")


class TestCurvesWithConfidence:
    def test_shape(self):
        result = curves_with_confidence(
            lambda seed, x: {"f": x * 10.0 + seed, "g": 1.0},
            seeds=[0, 1, 2],
            xs=[1, 2],
            figure_id="curves",
            title="test",
            x_label="x",
        )
        assert result.xs == [1.0, 2.0]
        f_mean = result.series_by_label("f").values
        f_ci = result.series_by_label("f ±").values
        g_ci = result.series_by_label("g ±").values
        assert f_mean == [pytest.approx(11.0), pytest.approx(21.0)]
        assert all(ci > 0 for ci in f_ci)
        assert all(ci == 0 for ci in g_ci)

    def test_validation(self):
        with pytest.raises(ValueError):
            curves_with_confidence(lambda s, x: {}, [], [1], "i", "t", "x")
        with pytest.raises(ValueError):
            curves_with_confidence(lambda s, x: {}, [1], [], "i", "t", "x")
