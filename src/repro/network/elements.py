"""Stateful network elements: capacitated links and servers.

These mirror the paper's model exactly: every link ``e`` has a bandwidth
capacity ``B_e`` and a per-unit usage cost ``c_e``; every switch in ``V_S``
has an attached server with compute capacity ``C_v`` and per-unit cost
``c_v``.  Residuals (``B_e(k)``, ``C_v(k)`` in the paper's notation) are
tracked mutably so a single :class:`~repro.network.sdn.SDNetwork` instance
can serve an entire online simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Tuple

from repro.exceptions import CapacityExceededError

_EPSILON = 1e-9

#: Release snap threshold: when a release brings an element within this
#: *relative* distance of full capacity, the residual is snapped exactly to
#: the capacity.  Floating-point subtraction is not symmetric — after
#: ``residual -= a; residual += a`` the residual can drift by an ulp per
#: round trip — and over a long churn simulation (millions of admit/depart
#: cycles) that drift becomes a slow capacity leak.  Real allocations are
#: many orders of magnitude above the threshold (≥ 1 Mbps / MHz against
#: thousands of capacity), so the snap can only ever absorb drift, never a
#: genuine reservation.
_SNAP_FRACTION = 1e-9


@dataclass
class LinkState:
    """Mutable bandwidth bookkeeping for one undirected link.

    Attributes:
        endpoints: canonical ``(u, v)`` key of the link.
        capacity: total bandwidth ``B_e`` in Mbps.
        unit_cost: usage cost ``c_e`` per Mbps (drives the operational cost).
        residual: currently unallocated bandwidth ``B_e(k)``.
        up: whether the link is operational.  A failed link carries no new
            traffic (``can_allocate`` is ``False``) but keeps its residual
            bookkeeping, so trees routed over it before the failure can
            still release their reservations during repair or departure.
    """

    endpoints: Tuple[Hashable, Hashable]
    capacity: float
    unit_cost: float
    residual: float = field(default=-1.0)
    up: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link capacity must be positive: {self.capacity}")
        if self.unit_cost < 0:
            raise ValueError(f"link unit cost must be >= 0: {self.unit_cost}")
        if self.residual < 0:
            self.residual = self.capacity

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use, in ``[0, 1]``."""
        return 1.0 - self.residual / self.capacity

    def can_allocate(self, amount: float) -> bool:
        """Return whether ``amount`` Mbps fits (always ``False`` when down)."""
        return self.up and amount <= self.residual + _EPSILON

    def allocate(self, amount: float) -> None:
        """Reserve ``amount`` Mbps; raises if it does not fit."""
        if amount < 0:
            raise ValueError(f"cannot allocate negative bandwidth {amount}")
        if not self.can_allocate(amount):
            raise CapacityExceededError(
                f"link {self.endpoints}", amount, self.residual
            )
        self.residual = max(0.0, self.residual - amount)

    def release(self, amount: float) -> None:
        """Return ``amount`` Mbps; raises if it exceeds what is allocated."""
        if amount < 0:
            raise ValueError(f"cannot release negative bandwidth {amount}")
        if self.residual + amount > self.capacity + _EPSILON:
            raise ValueError(
                f"release of {amount} on link {self.endpoints} exceeds "
                f"allocated amount"
            )
        self.residual = min(self.capacity, self.residual + amount)
        if self.capacity - self.residual <= _SNAP_FRACTION * self.capacity:
            self.residual = self.capacity


@dataclass
class ServerState:
    """Mutable compute bookkeeping for the server attached to one switch.

    Attributes:
        node: the switch the server is attached to.
        capacity: total compute ``C_v`` in MHz.
        unit_cost: usage cost ``c_v`` per MHz.
        residual: currently unallocated compute ``C_v(k)``.
        up: whether the server is operational.  A failed server hosts no new
            chains (``can_allocate`` is ``False``) but keeps its residual
            bookkeeping so chains placed before the failure can release.
    """

    node: Hashable
    capacity: float
    unit_cost: float
    residual: float = field(default=-1.0)
    up: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"server capacity must be positive: {self.capacity}")
        if self.unit_cost < 0:
            raise ValueError(f"server unit cost must be >= 0: {self.unit_cost}")
        if self.residual < 0:
            self.residual = self.capacity

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use, in ``[0, 1]``."""
        return 1.0 - self.residual / self.capacity

    def can_allocate(self, amount: float) -> bool:
        """Return whether ``amount`` MHz fits (always ``False`` when down)."""
        return self.up and amount <= self.residual + _EPSILON

    def allocate(self, amount: float) -> None:
        """Reserve ``amount`` MHz; raises if it does not fit."""
        if amount < 0:
            raise ValueError(f"cannot allocate negative compute {amount}")
        if not self.can_allocate(amount):
            raise CapacityExceededError(
                f"server {self.node!r}", amount, self.residual
            )
        self.residual = max(0.0, self.residual - amount)

    def release(self, amount: float) -> None:
        """Return ``amount`` MHz; raises if it exceeds what is allocated."""
        if amount < 0:
            raise ValueError(f"cannot release negative compute {amount}")
        if self.residual + amount > self.capacity + _EPSILON:
            raise ValueError(
                f"release of {amount} on server {self.node!r} exceeds "
                f"allocated amount"
            )
        self.residual = min(self.capacity, self.residual + amount)
        if self.capacity - self.residual <= _SNAP_FRACTION * self.capacity:
            self.residual = self.capacity
