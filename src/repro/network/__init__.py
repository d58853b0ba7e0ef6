"""SDN substrate: capacitated network model, allocation, and control plane."""

from repro.network.allocation import AllocationTransaction
from repro.network.controller import (
    Controller,
    FlowRule,
    InstalledRequest,
    TableCapacityExceededError,
)
from repro.network.elements import LinkState, ServerState
from repro.network.sdn import (
    DEFAULT_BANDWIDTH_RANGE,
    DEFAULT_COMPUTE_RANGE,
    DEFAULT_LINK_COST_SCALE,
    DEFAULT_SERVER_FRACTION,
    DEFAULT_SERVER_UNIT_COST_RANGE,
    NetworkSnapshot,
    SDNetwork,
    build_sdn,
)

__all__ = [
    "SDNetwork",
    "NetworkSnapshot",
    "build_sdn",
    "LinkState",
    "ServerState",
    "AllocationTransaction",
    "Controller",
    "TableCapacityExceededError",
    "FlowRule",
    "InstalledRequest",
    "DEFAULT_BANDWIDTH_RANGE",
    "DEFAULT_COMPUTE_RANGE",
    "DEFAULT_SERVER_FRACTION",
    "DEFAULT_SERVER_UNIT_COST_RANGE",
    "DEFAULT_LINK_COST_SCALE",
]
