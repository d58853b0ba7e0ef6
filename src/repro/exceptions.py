"""Exception hierarchy for the NFV-multicast reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by an operation does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class InvalidWeightError(GraphError, ValueError):
    """An edge weight is negative, NaN, or infinite.

    Dijkstra needs non-negative weights, and the CSR kernel's ``inf``
    "not yet reached" sentinel needs finite ones, so weights are checked
    where they enter a graph.  Also a :class:`ValueError`, so callers that
    catch the built-in type keep working.
    """

    def __init__(self, u: object, v: object, weight: object) -> None:
        super().__init__(
            f"edge ({u!r}, {v!r}) has weight {weight!r}; edge weights must "
            "be finite non-negative numbers"
        )
        self.u = u
        self.v = v
        self.weight = weight


class DisconnectedGraphError(GraphError):
    """An operation required connectivity that the graph does not provide.

    Raised, for example, when a Steiner tree is requested for terminals that
    lie in different connected components.
    """


class NotATreeError(GraphError):
    """A graph expected to be a tree contains a cycle or is disconnected."""


class TopologyError(ReproError):
    """A topology generator was given inconsistent parameters."""


class ServiceChainError(ReproError):
    """A service chain definition is invalid (unknown function, empty chain)."""


class NetworkModelError(ReproError):
    """Base class for SDN substrate errors."""


class CapacityExceededError(NetworkModelError):
    """An allocation would drive a link or server below zero residual capacity."""

    def __init__(self, resource: str, requested: float, available: float) -> None:
        super().__init__(
            f"cannot allocate {requested:g} on {resource}: "
            f"only {available:g} available"
        )
        self.resource = resource
        self.requested = requested
        self.available = available


class AllocationError(NetworkModelError):
    """A release or commit did not match an outstanding allocation."""


class RequestError(ReproError):
    """A multicast request is malformed (e.g. source among destinations)."""


class InfeasibleRequestError(ReproError):
    """No feasible pseudo-multicast tree exists for a request.

    Raised by the single-request solvers when the (possibly pruned) network
    cannot connect the source, a server, and every destination.
    """


class SimulationError(ReproError):
    """The online simulation engine was driven into an invalid state."""


class ExperimentError(ReproError):
    """An analysis driver was configured with invalid parameters."""
