"""Unit tests for run statistics."""

import pytest

from repro.simulation import OfflineRunStats, ResilienceRunStats


class TestOfflineRunStats:
    def test_empty(self):
        stats = OfflineRunStats()
        assert stats.mean_cost == 0.0
        assert stats.mean_runtime == 0.0
        assert stats.mean_servers_used == 0.0
        assert stats.total_runtime == 0.0

    def test_aggregates(self):
        stats = OfflineRunStats(
            solved=3,
            infeasible=1,
            costs=[10.0, 20.0, 30.0],
            runtimes=[0.1, 0.2, 0.3],
            servers_used=[1, 2, 3],
        )
        assert stats.mean_cost == pytest.approx(20.0)
        assert stats.mean_runtime == pytest.approx(0.2)
        assert stats.total_runtime == pytest.approx(0.6)
        assert stats.mean_servers_used == pytest.approx(2.0)


class TestResilienceRunStats:
    def test_empty(self):
        stats = ResilienceRunStats()
        assert stats.dropped_by_failure == 0
        assert stats.repaired == 0
        assert stats.mean_repair_cost == 0.0
        assert stats.repairs_per_failure == 0.0

    def test_aggregates(self):
        stats = ResilienceRunStats(failures=2, repair_costs=[1.0, 3.0])
        for action in ("dropped", "grafted", "readmitted", "grafted"):
            stats.record_repair(action)
        assert stats.dropped_by_failure == 1
        assert stats.repaired == 3
        assert stats.mean_repair_cost == pytest.approx(2.0)
        assert stats.repairs_per_failure == pytest.approx(1.5)
