"""Unit tests for the network-function catalogue."""

import pytest

from repro.nfv import (
    FUNCTION_CATALOGUE,
    FunctionType,
    NetworkFunction,
    all_function_types,
)


class TestCatalogue:
    def test_all_five_functions_present(self):
        assert len(FUNCTION_CATALOGUE) == 5
        assert set(FUNCTION_CATALOGUE) == set(FunctionType)

    def test_get_function(self):
        for kind, fn in FUNCTION_CATALOGUE.items():
            assert fn.kind is kind
            assert fn.base_compute > 0

    def test_relative_costs(self):
        # IDS is the most expensive; NAT the cheapest (per the cited sources)
        demands = {
            kind: fn.compute_demand(100.0)
            for kind, fn in FUNCTION_CATALOGUE.items()
        }
        assert max(demands, key=demands.get) is FunctionType.IDS
        assert min(demands, key=demands.get) is FunctionType.NAT

    def test_all_function_types_stable(self):
        assert all_function_types() == all_function_types()
        assert len(all_function_types()) == 5


class TestNetworkFunction:
    def test_fixed_demand_ignores_bandwidth(self):
        fn = NetworkFunction(FunctionType.NAT, compute_per_mbps=0.0,
                             base_compute=40.0)
        assert fn.compute_demand(50.0) == fn.compute_demand(200.0) == 40.0

    def test_proportional_demand(self):
        fn = NetworkFunction(FunctionType.IDS, compute_per_mbps=2.0,
                             base_compute=10.0)
        assert fn.compute_demand(100.0) == pytest.approx(210.0)

    def test_negative_bandwidth_raises(self):
        fn = FUNCTION_CATALOGUE[FunctionType.PROXY]
        with pytest.raises(ValueError):
            fn.compute_demand(-1.0)

    def test_name(self):
        assert (
            FUNCTION_CATALOGUE[FunctionType.LOAD_BALANCER].name
            == "load_balancer"
        )
