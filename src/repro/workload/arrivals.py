"""Arrival processes layering timing onto request sequences.

The paper's online model is a plain adversarial sequence (requests arrive one
by one and never leave).  For the extension experiments — and because any
production admission controller faces churn — this module also provides a
Poisson arrival process with exponential holding times, producing an event
list of arrivals and departures that the simulation engine can replay.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import RequestError
from repro.workload.request import MulticastRequest


class EventKind(enum.Enum):
    """Arrival or departure of a request."""

    ARRIVAL = "arrival"
    DEPARTURE = "departure"


#: Rank of each event kind at equal times.  Departures precede arrivals so
#: capacity freed by a departure is usable by a simultaneous arrival.  The
#: resilience layer slots its events *before* both (recoveries at −2,
#: failures at −1 — see :mod:`repro.resilience.events`), so a simultaneous
#: arrival always sees the post-failure network.
DEPARTURE_RANK = 0
ARRIVAL_RANK = 1


def event_tiebreak(value: object) -> tuple:
    """A total, deterministic ordering key over arbitrary hashable ids.

    Numeric ids keep their natural order; everything else falls back to
    ``repr``.  The two classes never compare against each other (the leading
    tag separates them), so mixed-type id sets still sort without raising —
    which is what makes :func:`interleave` total.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (1, 0.0, repr(value))
    return (0, float(value), "")


@dataclass(frozen=True)
class RequestEvent:
    """A timestamped arrival or departure.

    Ordering is by ``(time, rank, request id)``: departures before arrivals
    at equal times, and coincident events of the same kind tie-broken by
    request id (see :func:`event_tiebreak`), so every interleaving is
    reproducible across runs and worker processes.
    """

    time: float
    kind: EventKind
    request: MulticastRequest

    def sort_key(self) -> tuple:
        """Total ordering key: departures ahead of coincident arrivals."""
        rank = (
            DEPARTURE_RANK if self.kind is EventKind.DEPARTURE
            else ARRIVAL_RANK
        )
        return (self.time, rank, event_tiebreak(self.request.request_id))


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number above zero.

    The one check every arrival-process parameter (rates, holding times,
    spacings, periods, multipliers) goes through: a plain ``<= 0`` guard
    lets NaN through, and NaN or infinite timing silently corrupts the
    event order downstream.

    Raises:
        RequestError: for zero, negative, NaN, or infinite values.
    """
    if not (value > 0 and math.isfinite(value)):
        raise RequestError(f"{name} must be finite and positive: {value!r}")
    return value


def one_by_one(requests: Sequence[MulticastRequest]) -> List[RequestEvent]:
    """The paper's model: unit-spaced arrivals, no departures."""
    return [
        RequestEvent(time=float(i), kind=EventKind.ARRIVAL, request=request)
        for i, request in enumerate(requests)
    ]


def poisson_process(
    requests: Sequence[MulticastRequest],
    arrival_rate: float,
    mean_holding_time: float,
    seed: int = 0,
) -> List[RequestEvent]:
    """Poisson arrivals with exponential holding times.

    Args:
        requests: the request bodies, consumed in order.
        arrival_rate: mean arrivals per unit time (λ > 0).
        mean_holding_time: mean residence time of an admitted request (1/μ).
        seed: RNG seed.

    Returns:
        The merged, time-sorted arrival + departure event list.
    """
    require_positive("arrival_rate", arrival_rate)
    require_positive("mean_holding_time", mean_holding_time)
    rng = random.Random(seed)
    events: List[RequestEvent] = []
    clock = 0.0
    for request in requests:
        clock += rng.expovariate(arrival_rate)
        holding = rng.expovariate(1.0 / mean_holding_time)
        events.append(RequestEvent(clock, EventKind.ARRIVAL, request))
        events.append(RequestEvent(clock + holding, EventKind.DEPARTURE, request))
    events.sort(key=RequestEvent.sort_key)
    return events


def interleave(*streams: Sequence) -> List:
    """Merge event streams into one total-ordered list.

    Accepts any mix of event types exposing a ``sort_key()`` method whose
    keys are mutually comparable — request events and the resilience
    layer's failure events share the ``(time, rank, tiebreak)`` shape, so
    arrival/departure/failure/recovery streams interleave deterministically.
    The sort is stable, so events with fully equal keys keep the order of
    the argument streams; the combined key is total (no unordered ties), so
    the merged sequence is identical across runs and ``--workers`` values.
    """
    merged: List = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda event: event.sort_key())
    return merged
