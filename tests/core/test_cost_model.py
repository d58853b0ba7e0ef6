"""Unit tests for the online cost models (Eqs. 1 and 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExponentialCostModel,
    LinearCostModel,
    LinkPrices,
    UtilizationCostModel,
)
from repro.core.cost_model import TIE_BREAK_SCALE
from repro.exceptions import InvalidWeightError
from repro.graph import compile_csr
from repro.network import build_sdn
from repro.topology import waxman_graph


def first_edge(network):
    return next(iter(network.graph.edges()))[:2]


class TestExponentialModel:
    def test_idle_network_weights_are_zero(self, small_network):
        model = ExponentialCostModel.for_network(small_network)
        u, v = first_edge(small_network)
        assert model.edge_weight(small_network, u, v) == pytest.approx(0.0)
        server = small_network.server_nodes[0]
        assert model.node_weight(small_network, server) == pytest.approx(0.0)

    def test_equation_two(self, small_network):
        """w_e(k) = β^{1 − B_e(k)/B_e} − 1 with β = 2|V|."""
        model = ExponentialCostModel.for_network(small_network)
        u, v = first_edge(small_network)
        link = small_network.link(u, v)
        small_network.allocate_bandwidth(u, v, 0.5 * link.capacity)
        beta = 2 * small_network.num_nodes
        expected = beta**0.5 - 1
        assert model.edge_weight(small_network, u, v) == pytest.approx(expected)

    def test_equation_one(self, small_network):
        """c_v(k) = C_v(α^{1 − C_v(k)/C_v} − 1)."""
        model = ExponentialCostModel.for_network(small_network)
        server = small_network.server_nodes[0]
        state = small_network.server(server)
        small_network.allocate_compute(server, 0.25 * state.capacity)
        alpha = 2 * small_network.num_nodes
        expected_weight = alpha**0.25 - 1
        assert model.node_weight(small_network, server) == pytest.approx(
            expected_weight
        )
        assert model.node_cost(small_network, server) == pytest.approx(
            state.capacity * expected_weight
        )

    def test_cost_increases_with_load(self, small_network):
        model = ExponentialCostModel.for_network(small_network)
        u, v = first_edge(small_network)
        weights = []
        for _ in range(4):
            weights.append(model.edge_weight(small_network, u, v))
            small_network.allocate_bandwidth(
                u, v, 0.2 * small_network.link(u, v).capacity
            )
        assert weights == sorted(weights)
        # convexity: the exponential knee accelerates
        assert weights[3] - weights[2] > weights[1] - weights[0]

    def test_custom_bases(self, small_network):
        model = ExponentialCostModel(alpha=4.0, beta=9.0)
        assert model.alpha(small_network) == 4.0
        assert model.beta(small_network) == 9.0

    def test_invalid_bases(self):
        with pytest.raises(ValueError):
            ExponentialCostModel(alpha=1.0)
        with pytest.raises(ValueError):
            ExponentialCostModel(beta=0.5)


class TestWeightGraph:
    def test_prunes_thin_links(self, small_network):
        model = ExponentialCostModel.for_network(small_network)
        u, v = first_edge(small_network)
        capacity = small_network.link(u, v).capacity
        small_network.allocate_bandwidth(u, v, capacity - 10.0)
        weighted = model.weight_graph(small_network, min_residual_bandwidth=50.0)
        assert not weighted.has_edge(u, v)
        assert weighted.num_nodes == small_network.num_nodes

    def test_tie_break_prefers_cheap_links(self, small_network):
        model = ExponentialCostModel.for_network(small_network)
        weighted = model.weight_graph(small_network)
        for u, v, w in weighted.edges():
            expected = TIE_BREAK_SCALE * small_network.link_unit_cost(u, v)
            assert w == pytest.approx(expected)
            assert w > 0.0  # strictly positive => deterministic Steiner trees


class TestLinearModels:
    def test_static_linear_ignores_load(self, small_network):
        model = LinearCostModel()
        u, v = first_edge(small_network)
        before = model.edge_weight(small_network, u, v)
        small_network.allocate_bandwidth(
            u, v, 0.9 * small_network.link(u, v).capacity
        )
        assert model.edge_weight(small_network, u, v) == pytest.approx(before)

    def test_utilization_model_tracks_load(self, small_network):
        model = UtilizationCostModel()
        u, v = first_edge(small_network)
        assert model.edge_weight(small_network, u, v) == 0.0
        small_network.allocate_bandwidth(
            u, v, 0.5 * small_network.link(u, v).capacity
        )
        assert model.edge_weight(small_network, u, v) == pytest.approx(0.5)
        server = small_network.server_nodes[0]
        small_network.allocate_compute(
            server, 0.3 * small_network.server(server).capacity
        )
        assert model.node_weight(small_network, server) == pytest.approx(0.3)


def load_and_fail(network):
    """Book uneven bandwidth on a few links and fail another one."""
    edges = [edge[:2] for edge in network.graph.edges()]
    for step, (u, v) in enumerate(edges[:6]):
        link = network.link(u, v)
        network.allocate_bandwidth(u, v, (0.15 * step + 0.1) * link.capacity)
    network.fail_link(*edges[7])


#: The network mutations the incremental-pricing property draws from.
NETWORK_STEPS = (
    "allocate", "release", "fail", "recover", "snapshot", "restore", "reset"
)


class NetworkSteps:
    """Applies drawn steps to a network, keeping every step legal.

    Bookings are remembered so a release never returns more than was
    allocated, and a restore brings back the bookings of its snapshot.
    """

    def __init__(self, network):
        self.network = network
        self.edges = [edge[:2] for edge in network.graph.edges()]
        self.bookings = []
        self.saved = (network.snapshot(), [])

    def residual_of(self, pick):
        return self.network.link(*self.edges[pick % len(self.edges)]).residual

    def apply(self, kind, pick, fraction):
        network = self.network
        u, v = self.edges[pick % len(self.edges)]
        link = network.link(u, v)
        if kind == "allocate" and link.up:
            amount = fraction * link.residual
            network.allocate_bandwidth(u, v, amount)
            self.bookings.append((u, v, amount))
        elif kind == "release" and self.bookings:
            network.release_bandwidth(
                *self.bookings.pop(pick % len(self.bookings))
            )
        elif kind == "fail":
            network.fail_link(u, v)
        elif kind == "recover":
            network.recover_link(u, v)
        elif kind == "snapshot":
            self.saved = (network.snapshot(), list(self.bookings))
        elif kind == "restore":
            snapshot, bookings = self.saved
            network.restore(snapshot)
            self.bookings = list(bookings)
        elif kind == "reset":
            network.reset()
            self.bookings = []


class CountingModel(ExponentialCostModel):
    """Exponential pricing that counts its link-price calls."""

    calls = 0

    def edge_weight(self, network, u, v):
        CountingModel.calls += 1
        return super().edge_weight(network, u, v)


class TestLinkPrices:
    """The flat twin of weight_graph: same graph, priced once per epoch."""

    @pytest.mark.parametrize(
        "model",
        [ExponentialCostModel(), LinearCostModel(), UtilizationCostModel()],
        ids=["exponential", "linear", "utilization"],
    )
    @pytest.mark.parametrize("bandwidth", [0.0, 50.0, 2_500.0])
    def test_priced_csr_equals_compiled_weight_graph(
        self, small_network, model, bandwidth
    ):
        load_and_fail(small_network)
        prices = LinkPrices(model, small_network)
        flat = prices.priced_csr(bandwidth)
        expected = compile_csr(
            model.weight_graph(small_network, min_residual_bandwidth=bandwidth)
        )
        assert flat.nodes == expected.nodes
        assert flat.index == expected.index
        assert flat.adjacency() == expected.adjacency()
        assert flat.epoch == small_network.epoch
        for u, v, _ in small_network.graph.edges():
            link_id = prices.link_at[prices.index[u]][prices.index[v]]
            assert prices.price[link_id] == model.edge_weight(small_network, u, v)

    def test_links_are_priced_once_per_epoch(self, small_network):
        """A refresh re-prices only the links whose state changed."""
        network = small_network
        prices = LinkPrices(CountingModel(), network)
        edges = [edge[:2] for edge in network.graph.edges()]
        server = network.server_nodes[0]

        def calls_after(change, *args):
            CountingModel.calls = 0
            change(*args)
            prices.priced_csr(10.0)
            prices.priced_csr(80.0)
            return CountingModel.calls

        assert calls_after(lambda: None) == network.graph.num_edges
        assert calls_after(lambda: None) == 0
        snapshot = network.snapshot()
        assert calls_after(network.allocate_bandwidth, *edges[0], 1.0) == 1
        assert calls_after(network.fail_link, *edges[1]) == 1
        assert calls_after(network.recover_link, *edges[1]) == 1
        assert calls_after(network.allocate_compute, server, 1.0) == 0
        assert calls_after(network.restore, snapshot) == 1

        network.allocate_bandwidth(*edges[2], 1.0)
        network.allocate_bandwidth(*edges[3], 1.0)
        network.fail_link(*edges[4])
        prices.priced_csr(10.0)
        assert calls_after(network.reset) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(
            [ExponentialCostModel(), LinearCostModel(), UtilizationCostModel()]
        ),
        steps=st.lists(
            st.tuples(
                st.sampled_from(NETWORK_STEPS),
                st.integers(0, 1_000),
                st.floats(0.05, 1.0),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_incremental_prices_equal_fresh_prices(self, model, steps):
        """After any step, the kept prices are a fresh pricing, bit for bit."""
        graph, _ = waxman_graph(12, alpha=0.6, beta=0.4, seed=5)
        network = build_sdn(graph, seed=5, bandwidth_range=(100.0, 400.0))
        prices = LinkPrices(model, network)
        mutator = NetworkSteps(network)
        for step in steps:
            mutator.apply(*step)
            csr = prices.priced_csr()
            fresh = LinkPrices(model, network)
            fresh.priced_csr()
            assert [p.hex() for p in prices.price] == [
                p.hex() for p in fresh.price
            ]
            assert csr.epoch == network.epoch
            for bandwidth in (0.0, 60.0, mutator.residual_of(step[1])):
                assert prices.priced_csr(bandwidth).adjacency() == compile_csr(
                    model.weight_graph(network, bandwidth)
                ).adjacency()

    def test_kept_invalid_weight_raises_like_compile(self, small_network):
        class BrokenModel(ExponentialCostModel):
            def edge_weight(self, network, u, v):
                return math.nan if (u, v) == broken else 0.0

        broken = first_edge(small_network)
        prices = LinkPrices(BrokenModel(), small_network)
        with pytest.raises(InvalidWeightError, match="finite non-negative"):
            prices.priced_csr(10.0)
        # a link the request cannot use is never checked, as in weight_graph
        small_network.fail_link(*broken)
        assert prices.priced_csr(10.0).num_edges == (
            small_network.graph.num_edges - 1
        )
