"""Unit tests for flow-table capacity constraints."""

import pytest

from repro.core.online_base import RejectReason
from repro.core import SPOnline
from repro.network import Controller, TableCapacityExceededError, build_sdn
from repro.simulation import run_sequential_capacitated
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload

HOPS = [("s", "a"), ("a", "d1"), ("a", "d2")]


class TestController:
    def test_unlimited_by_default(self):
        controller = Controller()
        assert controller.table_capacity is None
        assert controller.can_install(["s", "a"])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Controller(table_capacity=0)

    def test_rejects_at_capacity(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, HOPS, servers=[])
        assert not controller.can_install(["a"])
        with pytest.raises(TableCapacityExceededError):
            controller.install_tree(2, [("a", "d1")], servers=[])

    def test_rejection_installs_nothing(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, [("a", "d1")], servers=[])
        before = controller.total_rules()
        with pytest.raises(TableCapacityExceededError):
            # touches the full switch 'a' AND fresh switch 's'
            controller.install_tree(2, HOPS, servers=[])
        assert controller.total_rules() == before
        assert not controller.is_installed(2)
        assert controller.table_occupancy("s") == 0

    def test_uninstall_frees_capacity(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, [("a", "d1")], servers=[])
        controller.uninstall(1)
        controller.install_tree(2, [("a", "d1")], servers=[])
        assert controller.is_installed(2)


class TestEngineIntegration:
    @pytest.fixture
    def setup(self):
        graph = gt_itm_flat(30, seed=17)
        network = build_sdn(graph, seed=17)
        requests = generate_workload(graph, 60, dmax_ratio=0.1, seed=18)
        return network, requests

    def test_tiny_tables_cause_evictions(self, setup):
        network, requests = setup
        controller = Controller(table_capacity=2)
        stats = StreamEngine(
            SPOnline(network), SequenceStream(requests), controller=controller
        ).run()
        assert stats.rejections.get(RejectReason.TABLE_CAPACITY.value, 0) > 0
        assert stats.admitted + stats.rejected == len(requests)
        # every installed request really has rules; every switch within cap
        assert len(controller.installed_requests) == stats.admitted

    def test_eviction_releases_resources(self, setup):
        network, requests = setup
        controller = Controller(table_capacity=1)
        stats = StreamEngine(
            SPOnline(network), SequenceStream(requests), controller=controller
        ).run()
        # the sum of admitted trees' reservations equals what's allocated:
        # evicted admissions must have released theirs
        admitted_ids = set(controller.installed_requests)
        assert stats.admitted == len(admitted_ids)
        total_bw = network.total_bandwidth_allocated()
        if stats.admitted == 0:
            assert total_bw == pytest.approx(0.0)

    def test_unlimited_controller_never_evicts(self, setup):
        network, requests = setup
        controller = Controller()
        stats = StreamEngine(
            SPOnline(network), SequenceStream(requests), controller=controller
        ).run()
        assert RejectReason.TABLE_CAPACITY.value not in stats.rejections

    def test_sequential_capacitated_respects_tables(self, setup):
        from repro.core import appro_multi_cap

        network, requests = setup
        controller = Controller(table_capacity=3)
        stats = run_sequential_capacitated(
            lambda net, req: appro_multi_cap(net, req, max_servers=1),
            network,
            requests,
            controller=controller,
        )
        assert stats.solved == len(controller.installed_requests)
        assert stats.solved + stats.infeasible == len(requests)
