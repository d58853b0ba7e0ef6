"""Teardown symmetry: uninstall + release restores the network exactly.

The invariant behind every churn and resilience experiment: after all
admitted requests depart, every link and server residual equals its
capacity *bit-for-bit* (the release path snaps near-capacity residuals, so
IEEE-754 non-associativity cannot leak capacity across admit/release
cycles), and the controller holds zero rules.
"""

from repro.core import OnlineCP
from repro.network import Controller, build_sdn
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload, poisson_process


def _assert_pristine(network, controller):
    for link in network.links():
        assert link.residual == link.capacity, link.endpoints
    for server in network.servers():
        assert server.residual == server.capacity, server.node
    assert controller.installed_requests == []
    assert controller.total_rules() == 0


class TestTeardownSymmetry:
    def test_full_churn_cycle_restores_exactly(self):
        graph = gt_itm_flat(40, seed=17)
        network = build_sdn(graph, seed=17)
        requests = generate_workload(graph, 40, dmax_ratio=0.15, seed=18)
        events = poisson_process(requests, 3.0, 6.0, seed=19)
        controller = Controller()
        stats = StreamEngine(
            OnlineCP(network),
            SequenceStream.from_events(events),
            controller=controller,
        ).run(drain=True)
        assert stats.admitted > 0  # the check must exercise real releases
        _assert_pristine(network, controller)

    def test_repeated_cycles_do_not_accumulate_drift(self):
        """Capacity must not leak across many admit/release generations."""
        graph = gt_itm_flat(30, seed=23)
        network = build_sdn(graph, seed=23)
        controller = Controller()
        for generation in range(5):
            requests = generate_workload(
                graph, 15, dmax_ratio=0.1, seed=100 + generation
            )
            events = poisson_process(requests, 4.0, 3.0, seed=generation)
            StreamEngine(
                OnlineCP(network),
                SequenceStream.from_events(events),
                controller=controller,
            ).run(drain=True)
            _assert_pristine(network, controller)

    def test_manual_uninstall_release_roundtrip(
        self, small_network, request_batch
    ):
        from repro.core import appro_multi_cap
        from repro.core.admission import try_allocate

        controller = Controller()
        installed = []
        for request in request_batch:
            tree = appro_multi_cap(small_network, request, max_servers=2)
            txn = try_allocate(small_network, tree)
            if txn is None:
                continue
            controller.install_tree(
                request.request_id, tree.routing_hops(), list(tree.servers)
            )
            installed.append((request.request_id, txn))
        assert installed
        for request_id, txn in installed:
            controller.uninstall(request_id)
            txn.release_all()
        _assert_pristine(small_network, controller)
