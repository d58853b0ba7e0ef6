"""Integration tests: every figure driver runs and shows the paper's shape.

A micro profile keeps each driver to a couple of seconds while still being
large enough for the qualitative claims (who wins) to hold.
"""

import pytest

from repro import obs
from repro.analysis import (
    ExperimentProfile,
    run_ablations,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)
from repro.analysis.fig5 import fig5_instance
from repro.core import alg_one_server, appro_multi
from repro.simulation import run_offline

MICRO = ExperimentProfile(
    name="micro",
    network_sizes=(40, 60),
    ratios=(0.1,),
    offline_requests=6,
    online_requests=200,
    request_counts=(100, 200),
    max_servers=2,
    base_seed=7,
)


class TestFig5:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig5(MICRO)

    def test_panel_structure(self, panels):
        assert len(panels) == 2  # one (cost, time) pair per ratio
        cost, time = panels
        assert cost.figure_id.startswith("fig5-cost")
        assert time.figure_id.startswith("fig5-time")
        assert cost.xs == [40, 60]

    def test_appro_beats_baseline(self, panels):
        cost = panels[0]
        appro = cost.series_by_label("Appro_Multi").values
        base = cost.series_by_label("Alg_One_Server").values
        assert all(a < b for a, b in zip(appro, base))

    @pytest.fixture(scope="class")
    def work(self):
        """Per-request work counters of both solvers at every data point."""
        was_enabled = obs.enabled()
        saved = obs.snapshot()
        obs.enable()
        points = []
        try:
            for ratio in MICRO.ratios:
                for size in MICRO.network_sizes:
                    network, requests = fig5_instance(MICRO, ratio, size)
                    runs = [
                        run_offline(
                            lambda net, req: appro_multi(
                                net, req, max_servers=MICRO.max_servers
                            ),
                            network,
                            requests,
                        ),
                        run_offline(alg_one_server, network, requests),
                    ]
                    points.append([
                        {
                            name: count / len(requests)
                            for name, count in run.telemetry.items()
                        }
                        for run in runs
                    ])
        finally:
            obs.reset()
            obs.merge(saved)
            if not was_enabled:
                obs.disable()
        return points

    def test_appro_is_slower(self, work):
        """Fig. 5(d)-(f): ``Appro_Multi`` is slower because it does more.

        Per request, at every point, it scores more server combinations
        and builds more trees than ``Alg_One_Server``.  The claim is
        checked on work counts rather than seconds, which a host stall
        can flip at this size; the time panel still plots seconds.
        """
        for appro, base in work:
            assert (
                appro["appro_multi.combinations_evaluated"]
                > base["alg_one_server.combinations_evaluated"]
            )
            assert appro["fasteval.kmb_trees"] > base["alg_one_server.trees"]


class TestFig6:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig6(MICRO, topologies=("GEANT",))

    def test_structure(self, panels):
        assert len(panels) == 2
        cost, _ = panels
        assert cost.xs == [0.05, 0.1, 0.15, 0.2]

    def test_appro_wins_in_geant(self, panels):
        cost = panels[0]
        appro = cost.series_by_label("Appro_Multi").values
        base = cost.series_by_label("Alg_One_Server").values
        assert all(a < b for a, b in zip(appro, base))

    def test_cost_grows_with_ratio(self, panels):
        appro = panels[0].series_by_label("Appro_Multi").values
        assert appro[-1] > appro[0]


class TestFig7:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig7(MICRO)

    def test_structure(self, panels):
        assert [p.figure_id for p in panels] == [
            "fig7-cost",
            "fig7-time",
            "fig7-rejections",
        ]

    def test_capacitated_not_cheaper(self, panels):
        cost = panels[0]
        cap = cost.series_by_label("Appro_Multi_Cap").values
        uncap = cost.series_by_label("Appro_Multi (uncapacitated)").values
        assert all(c >= u - 1e-9 for c, u in zip(cap, uncap))


class TestFig8:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig8(MICRO)

    def test_cp_admits_at_least_sp(self, panels):
        admitted = panels[0]
        cp = admitted.series_by_label("Online_CP").values
        sp = admitted.series_by_label("SP").values
        assert all(c >= s for c, s in zip(cp, sp))
        assert sum(cp) > sum(sp)  # strictly better overall

    def test_admissions_bounded_by_requests(self, panels):
        admitted = panels[0]
        for series in admitted.series:
            assert all(0 <= v <= MICRO.online_requests for v in series.values)


class TestFig9:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_fig9(MICRO, topologies=("GEANT",))

    def test_structure(self, panels):
        assert len(panels) == 1
        assert panels[0].xs == [100.0, 200.0]

    def test_admissions_monotone_in_request_count(self, panels):
        for series in panels[0].series:
            assert series.values == sorted(series.values)

    def test_cp_at_least_sp_at_full_load(self, panels):
        cp = panels[0].series_by_label("Online_CP").values
        sp = panels[0].series_by_label("SP").values
        assert cp[-1] >= sp[-1]


class TestAblations:
    @pytest.fixture(scope="class")
    def panels(self):
        return run_ablations(MICRO)

    def test_all_studies_present(self, panels):
        ids = [p.figure_id for p in panels]
        assert ids == [
            "ablation-k",
            "ablation-cost-model",
            "ablation-thresholds",
            "ablation-kmb",
            "ablation-online-k",
            "ablation-topology",
        ]

    def test_gap_robust_across_topologies(self, panels):
        topology = panels[5]
        ratios = topology.series_by_label("cost ratio").values
        assert all(r < 1.0 for r in ratios)  # Appro wins on every family

    def test_online_k_extension_beats_sp(self, panels):
        online_k = panels[4]
        cpk2 = online_k.series_by_label("OnlineCPK K=2").values
        sp = online_k.series_by_label("SP").values
        assert sum(cpk2) >= sum(sp)

    def test_k_search_effort_grows(self, panels):
        k_panel = panels[0]
        combos = k_panel.series_by_label("combinations/request").values
        assert combos == sorted(combos)
        assert combos[-1] > combos[0]

    def test_k_cost_never_increases(self, panels):
        costs = panels[0].series_by_label("mean cost").values
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_kmb_ratio_within_bound(self, panels):
        ratios = panels[3].series_by_label("cost ratio").values
        assert all(1.0 - 1e-9 <= r <= 2.0 + 1e-9 for r in ratios)
