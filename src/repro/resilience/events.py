"""Failure and recovery event streams for the resilience simulations.

Real SDNs lose links and servers while requests are in flight.  This module
models those incidents as timestamped :class:`FailureEvent` records that
interleave with the workload's arrival/departure stream through the shared
``sort_key()`` ordering of :mod:`repro.workload.arrivals`:

- at equal times, **recoveries** apply first (capacity that comes back is
  usable immediately), then **failures**, then departures, then arrivals —
  so a simultaneous arrival always sees the post-incident network;
- ties within a rank are broken by the element's identity, making every
  interleaving total and reproducible across runs and worker processes.

Two generators cover the experiments: :func:`deterministic_schedule` for
hand-written incident scripts (tests, what-if analyses) and
:func:`exponential_failures` for seeded alternating up/down renewal
processes (exponential time-to-failure and time-to-repair per element), the
standard availability model for long-running failure studies.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Tuple

from repro.exceptions import SimulationError
from repro.graph.graph import edge_key
from repro.network.sdn import SDNetwork
from repro.workload.arrivals import event_tiebreak

Node = Hashable

#: Sort ranks slotting failure events ahead of the workload's
#: departure (0) / arrival (1) ranks at equal times.
RECOVERY_RANK = -2
FAILURE_RANK = -1


class ElementKind(enum.Enum):
    """Which kind of network element an event concerns."""

    LINK = "link"
    SERVER = "server"


@dataclass(frozen=True)
class FailureEvent:
    """One link/server failure or recovery at a point in simulated time.

    Attributes:
        time: when the incident happens (same clock as request events).
        element: whether ``target`` names a link or a server.
        target: canonical ``(u, v)`` edge key for links, the node for
            servers.
        up: ``True`` for a recovery, ``False`` for a failure.
    """

    time: float
    element: ElementKind
    target: object
    up: bool

    def sort_key(self) -> tuple:
        """Total ordering key compatible with ``RequestEvent.sort_key``."""
        rank = RECOVERY_RANK if self.up else FAILURE_RANK
        return (self.time, rank, event_tiebreak((self.element.value,
                                                 repr(self.target))))

    def describe(self) -> str:
        """Return a compact human-readable summary."""
        verb = "recovers" if self.up else "fails"
        return f"t={self.time:.3f}: {self.element.value} {self.target!r} {verb}"


def link_failure(time: float, u: Node, v: Node) -> FailureEvent:
    """A link going down at ``time``."""
    return FailureEvent(time, ElementKind.LINK, edge_key(u, v), up=False)


def link_recovery(time: float, u: Node, v: Node) -> FailureEvent:
    """A link coming back up at ``time``."""
    return FailureEvent(time, ElementKind.LINK, edge_key(u, v), up=True)


def server_failure(time: float, node: Node) -> FailureEvent:
    """A server going down at ``time`` (its switch keeps forwarding)."""
    return FailureEvent(time, ElementKind.SERVER, node, up=False)


def server_recovery(time: float, node: Node) -> FailureEvent:
    """A server coming back up at ``time``."""
    return FailureEvent(time, ElementKind.SERVER, node, up=True)


def deterministic_schedule(
    events: Iterable[FailureEvent],
) -> List[FailureEvent]:
    """Validate and time-order a hand-written incident script.

    Raises:
        SimulationError: if any event has a negative time, or the script
            fails an element that is already down (or recovers one that is
            already up) — a scripting mistake that would silently desync
            the intended scenario from the simulated one.
    """
    ordered = sorted(events, key=FailureEvent.sort_key)
    state = {}
    for event in ordered:
        if event.time < 0:
            raise SimulationError(f"negative event time: {event.describe()}")
        key = (event.element, repr(event.target))
        if state.get(key, True) == event.up:
            # transitions must alternate: a failure needs an up element,
            # a recovery needs a down one
            word = "up" if event.up else "down"
            raise SimulationError(
                f"{event.describe()}: element is already {word}"
            )
        state[key] = event.up
    return ordered


def exponential_failures(
    network: SDNetwork,
    *,
    mean_time_to_failure: float,
    mean_time_to_repair: float,
    horizon: float,
    seed: int = 0,
    links: bool = True,
    servers: bool = False,
    fraction: float = 1.0,
) -> List[FailureEvent]:
    """Seeded exponential up/down renewal processes over network elements.

    Each selected element alternates ``up → down → up → …`` with
    exponentially distributed sojourn times (mean ``mean_time_to_failure``
    up, ``mean_time_to_repair`` down), truncated at ``horizon``.  Elements
    are processed in a stable sorted order and all randomness comes from
    ``seed``, so the stream is a pure function of the arguments.

    Args:
        network: the network whose links/servers can fail.
        mean_time_to_failure: mean up-time before a failure (``> 0``).
        mean_time_to_repair: mean down-time before recovery (``> 0``).
        horizon: generate events strictly before this time (``> 0``).
        seed: RNG seed.
        links: include link failures.
        servers: include server failures.
        fraction: fraction of eligible elements subjected to the process
            (``0 < fraction <= 1``); a seeded sample keeps failure volumes
            tunable independently of network size.

    Returns:
        The merged, time-ordered failure/recovery event list.  Every
        failure that recovers before the horizon is paired with its
        recovery; failures whose repair would land past the horizon stay
        down for the rest of the run.
    """
    if mean_time_to_failure <= 0:
        raise SimulationError(
            f"mean_time_to_failure must be positive: {mean_time_to_failure}"
        )
    if mean_time_to_repair <= 0:
        raise SimulationError(
            f"mean_time_to_repair must be positive: {mean_time_to_repair}"
        )
    if horizon <= 0:
        raise SimulationError(f"horizon must be positive: {horizon}")
    if not 0.0 < fraction <= 1.0:
        raise SimulationError(f"fraction must be in (0, 1]: {fraction}")

    targets: List[Tuple[ElementKind, object]] = []
    if links:
        link_keys = sorted((link.endpoints for link in network.links()),
                           key=repr)
        targets.extend((ElementKind.LINK, key) for key in link_keys)
    if servers:
        targets.extend(
            (ElementKind.SERVER, node) for node in network.server_nodes
        )

    rng = random.Random(seed)
    if fraction < 1.0:
        count = max(1, round(fraction * len(targets))) if targets else 0
        targets = rng.sample(targets, min(count, len(targets)))
        targets.sort(key=repr)

    events: List[FailureEvent] = []
    for element, target in targets:
        clock = rng.expovariate(1.0 / mean_time_to_failure)
        while clock < horizon:
            events.append(FailureEvent(clock, element, target, up=False))
            repair = clock + rng.expovariate(1.0 / mean_time_to_repair)
            if repair >= horizon:
                break
            events.append(FailureEvent(repair, element, target, up=True))
            clock = repair + rng.expovariate(1.0 / mean_time_to_failure)
    events.sort(key=FailureEvent.sort_key)
    return events


def apply_event(network: SDNetwork, event: FailureEvent) -> bool:
    """Apply one failure/recovery to the network's element state.

    Returns whether the element actually changed state (re-failing a dead
    link is a no-op, so overlapping schedules compose safely).  Every real
    transition bumps the network epoch, invalidating all residual-derived
    shortest-path caches at once.
    """
    if event.element is ElementKind.LINK:
        u, v = event.target  # type: ignore[misc]
        if event.up:
            return network.recover_link(u, v)
        return network.fail_link(u, v)
    if event.up:
        return network.recover_server(event.target)
    return network.fail_server(event.target)


def horizon_of(*streams: Iterable) -> float:
    """Return the latest event time across streams (0.0 when all empty)."""
    latest = 0.0
    for stream in streams:
        for event in stream:
            if event.time > latest:
                latest = event.time
    return latest


__all__ = [
    "ElementKind",
    "FailureEvent",
    "FAILURE_RANK",
    "RECOVERY_RANK",
    "apply_event",
    "deterministic_schedule",
    "exponential_failures",
    "horizon_of",
    "link_failure",
    "link_recovery",
    "server_failure",
    "server_recovery",
]
