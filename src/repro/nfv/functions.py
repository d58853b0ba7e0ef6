"""Catalogue of virtualized network functions.

The paper considers five middlebox types — Firewall, Proxy, NAT, IDS and Load
Balancer — with computing demands "adopted from [7], [17]" (consolidated
middleboxes / ClickOS).  Those sources report per-function
VM footprints on consolidated middlebox platforms, so each function carries a
*fixed* compute demand (``base_compute``, in MHz) plus an optional
traffic-proportional term (``compute_per_mbps``) for modelling
throughput-bound functions.  The catalogue defaults use fixed demands in the
ballpark of the cited measurements — an IDS costs roughly twice a stateless
firewall, NAT is the cheapest — which is all the algorithms are sensitive
to.  With the paper's server capacities (4 000–12 000 MHz) a server hosts a
few dozen chains, making link bandwidth the contended resource in the online
experiments, as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List


class FunctionType(enum.Enum):
    """The five network-function types used in the paper's evaluation."""

    FIREWALL = "firewall"
    PROXY = "proxy"
    NAT = "nat"
    IDS = "ids"
    LOAD_BALANCER = "load_balancer"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class NetworkFunction:
    """A virtualized network function.

    Attributes:
        kind: which middlebox this is.
        compute_per_mbps: CPU demand in MHz per Mbps of traffic processed.
        base_compute: fixed MHz overhead of keeping the VM resident.
    """

    kind: FunctionType
    compute_per_mbps: float
    base_compute: float = 0.0

    def compute_demand(self, bandwidth_mbps: float) -> float:
        """Return the MHz needed to process ``bandwidth_mbps`` of traffic."""
        if bandwidth_mbps < 0:
            raise ValueError(f"negative bandwidth {bandwidth_mbps!r}")
        return self.base_compute + self.compute_per_mbps * bandwidth_mbps

    @property
    def name(self) -> str:
        """Human-readable function name."""
        return self.kind.value


#: Default per-function demands (fixed MHz per chain instance), after
#: [7], [17].
FUNCTION_CATALOGUE: Dict[FunctionType, NetworkFunction] = {
    FunctionType.FIREWALL: NetworkFunction(
        FunctionType.FIREWALL, compute_per_mbps=0.0, base_compute=45.0
    ),
    FunctionType.PROXY: NetworkFunction(
        FunctionType.PROXY, compute_per_mbps=0.0, base_compute=55.0
    ),
    FunctionType.NAT: NetworkFunction(
        FunctionType.NAT, compute_per_mbps=0.0, base_compute=40.0
    ),
    FunctionType.IDS: NetworkFunction(
        FunctionType.IDS, compute_per_mbps=0.0, base_compute=90.0
    ),
    FunctionType.LOAD_BALANCER: NetworkFunction(
        FunctionType.LOAD_BALANCER, compute_per_mbps=0.0, base_compute=65.0
    ),
}


def all_function_types() -> List[FunctionType]:
    """Return every catalogued function type, in a stable order."""
    return list(FunctionType)
