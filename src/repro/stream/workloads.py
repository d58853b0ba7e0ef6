"""Seeded, clock-free arrival streams for unbounded online runs.

The figure workloads materialize a request list before the run starts;
an admission controller that serves millions of requests cannot.  Every
stream here is a *pull-based* iterator: each ``next_arrival()`` call
draws exactly one arrival (request body, simulated arrival time, holding
time) from an explicitly seeded RNG, so

- memory never depends on how many requests the stream will produce,
- the sequence is a pure function of the construction parameters (no
  wall-clock reads anywhere — "time" below is always *simulated* time),
- the drawing state between two arrivals is a small JSON-serializable
  dict (:meth:`ArrivalStream.state`), which is what makes mid-stream
  checkpoint/resume bit-identical: all intermediate draws (e.g. the
  rejected candidates of a thinning loop) happen *inside* one
  ``next_arrival()`` call, so a snapshot taken between arrivals never
  captures a half-finished draw.

Families:

- :class:`PoissonStream` — stationary Poisson arrivals, exponential
  holding times (the churn model of the extension experiments).
- :class:`DiurnalStream` — non-homogeneous Poisson with a sinusoidal
  day/night rate, sampled by thinning (acceptance-rejection against the
  peak rate).
- :class:`FlashCrowdStream` — a base Poisson rate multiplied during
  deterministically scheduled flash episodes, also sampled by thinning.
- :class:`SequenceStream` / :class:`FigureStream` — adapters exposing a
  materialized request list or a :class:`~repro.workload.generator.
  RequestGenerator` as the paper's one-by-one adversarial model
  (unit-spaced arrivals, no departures);
  :meth:`SequenceStream.from_events` does the same for a timed
  arrival/departure list such as
  :func:`~repro.workload.arrivals.poisson_process` output.
- :class:`ParetoGroupGenerator` — a request generator whose multicast
  group sizes are heavy-tailed (bounded Pareto) instead of uniform.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import RequestError
from repro.graph.graph import Graph
from repro.nfv.service_chain import random_service_chain
from repro.workload.arrivals import EventKind, RequestEvent, require_positive
from repro.workload.generator import RequestGenerator, WorkloadConfig
from repro.workload.request import MulticastRequest

__all__ = [
    "Arrival",
    "ArrivalStream",
    "DiurnalStream",
    "FigureStream",
    "FlashCrowdStream",
    "ParetoGroupGenerator",
    "PoissonStream",
    "SequenceStream",
    "WORKLOAD_FAMILIES",
    "bounded_pareto",
    "make_stream",
]


@dataclass(frozen=True)
class Arrival:
    """One arrival event of a stream.

    Attributes:
        time: simulated arrival instant (non-decreasing within a stream).
        request: the request body.
        holding_time: residence time of the request if admitted; ``None``
            means the request never departs (the paper's one-by-one
            model).
    """

    time: float
    request: MulticastRequest
    holding_time: Optional[float]


class ArrivalStream(ABC):
    """A seeded, restartable source of :class:`Arrival` events.

    Subclasses draw one arrival per :meth:`next_arrival` call and keep
    *all* drawing state in plain attributes covered by :meth:`state` /
    :meth:`restore` — never in a generator frame — so a stream can be
    snapshotted between any two arrivals and resumed bit-identically in
    a fresh process.

    ``limit`` bounds how many arrivals the stream yields (``None`` means
    unbounded); ``produced`` counts arrivals already yielded and is part
    of the serialized state, so a restored stream honours the original
    limit.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise RequestError(f"limit must be >= 0, got {limit}")
        self.limit = limit
        self.produced = 0
        self.clock = 0.0

    # -- drawing --------------------------------------------------------
    @abstractmethod
    def _draw(self) -> Optional[Arrival]:
        """Draw the next arrival (limit already checked), or ``None``."""

    def next_arrival(self) -> Optional[Arrival]:
        """The next arrival, or ``None`` once the limit is reached."""
        if self.limit is not None and self.produced >= self.limit:
            return None
        arrival = self._draw()
        if arrival is not None:
            self.produced += 1
            self.clock = arrival.time
        return arrival

    def __iter__(self) -> Iterator[Arrival]:
        while True:
            arrival = self.next_arrival()
            if arrival is None:
                return
            yield arrival

    # -- checkpoint support ---------------------------------------------
    def state(self) -> dict:
        """JSON-serializable drawing state (extended by subclasses)."""
        return {"produced": self.produced, "clock": self.clock}

    def restore(self, state: dict) -> None:
        """Resume drawing from a :meth:`state` snapshot."""
        self.produced = int(state["produced"])
        self.clock = float(state["clock"])


def _rng_state(rng: random.Random) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _set_rng_state(rng: random.Random, state: Sequence) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))


class PoissonStream(ArrivalStream):
    """Stationary Poisson arrivals with exponential holding times.

    The stream-shaped equivalent of :func:`repro.workload.arrivals.
    poisson_process`: inter-arrival gaps are ``Exp(rate)``, holding times
    ``Exp(1/mean_holding)``, and request bodies come from the wrapped
    :class:`~repro.workload.generator.RequestGenerator` — but nothing is
    materialized, so ``limit=None`` runs forever in O(1) memory.

    The timing RNG is separate from the generator's request RNG; both
    are part of the serialized state.
    """

    def __init__(
        self,
        generator: RequestGenerator,
        arrival_rate: float,
        mean_holding: float,
        seed: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(limit)
        require_positive("arrival_rate", arrival_rate)
        require_positive("mean_holding", mean_holding)
        self.generator = generator
        self.arrival_rate = arrival_rate
        self.mean_holding = mean_holding
        self._timing = random.Random(seed)

    def _draw(self) -> Optional[Arrival]:
        self.clock += self._timing.expovariate(self.arrival_rate)
        holding = self._timing.expovariate(1.0 / self.mean_holding)
        return Arrival(self.clock, self.generator.next_request(), holding)

    def state(self) -> dict:
        base = super().state()
        base["timing_rng"] = _rng_state(self._timing)
        base["generator"] = self.generator.state()
        return base

    def restore(self, state: dict) -> None:
        super().restore(state)
        _set_rng_state(self._timing, state["timing_rng"])
        self.generator.restore(state["generator"])


class _ThinnedStream(ArrivalStream):
    """Shared thinning loop for non-homogeneous Poisson streams.

    Candidate arrivals are generated at the subclass's ceiling rate and
    accepted with probability ``rate(t) / ceiling`` (Lewis–Shedler
    acceptance-rejection).  All candidate draws — accepted and rejected —
    happen inside one :meth:`_draw` call, so snapshots between arrivals
    never split a thinning loop.
    """

    def __init__(
        self,
        generator: RequestGenerator,
        mean_holding: float,
        seed: int,
        limit: Optional[int],
    ) -> None:
        super().__init__(limit)
        require_positive("mean_holding", mean_holding)
        self.generator = generator
        self.mean_holding = mean_holding
        self._timing = random.Random(seed)

    def _rate(self, time: float) -> float:
        raise NotImplementedError

    def _ceiling(self) -> float:
        raise NotImplementedError

    def _draw(self) -> Optional[Arrival]:
        ceiling = self._ceiling()
        clock = self.clock
        while True:
            clock += self._timing.expovariate(ceiling)
            if self._timing.random() * ceiling <= self._rate(clock):
                break
        self.clock = clock
        holding = self._timing.expovariate(1.0 / self.mean_holding)
        return Arrival(clock, self.generator.next_request(), holding)

    def state(self) -> dict:
        base = super().state()
        base["timing_rng"] = _rng_state(self._timing)
        base["generator"] = self.generator.state()
        return base

    def restore(self, state: dict) -> None:
        super().restore(state)
        _set_rng_state(self._timing, state["timing_rng"])
        self.generator.restore(state["generator"])


class DiurnalStream(_ThinnedStream):
    """Sinusoidal day/night load: a non-homogeneous Poisson process.

    The instantaneous rate is::

        rate(t) = base + (peak - base) * 0.5 * (1 - cos(2πt / period))

    i.e. troughs at ``t = 0, period, ...`` (rate = ``base``) and crests
    at half-period (rate = ``peak``).  Sampled by thinning against the
    peak rate.
    """

    def __init__(
        self,
        generator: RequestGenerator,
        base_rate: float,
        peak_rate: float,
        period: float,
        mean_holding: float,
        seed: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(generator, mean_holding, seed, limit)
        require_positive("base_rate", base_rate)
        require_positive("peak_rate", peak_rate)
        require_positive("period", period)
        if base_rate > peak_rate:
            raise RequestError(
                f"need base_rate <= peak_rate, got ({base_rate}, {peak_rate})"
            )
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.period = period

    def _rate(self, time: float) -> float:
        swing = (self.peak_rate - self.base_rate) * 0.5
        return self.base_rate + swing * (
            1.0 - math.cos(2.0 * math.pi * time / self.period)
        )

    def _ceiling(self) -> float:
        return self.peak_rate


class FlashCrowdStream(_ThinnedStream):
    """A base Poisson rate with deterministically scheduled flash crowds.

    Episodes start at ``first_episode + k * episode_interval`` for
    ``k = 0, 1, 2, ...`` and last ``episode_duration``; inside an episode
    the rate is ``base_rate * multiplier``, outside it is ``base_rate``.
    The episode schedule is part of the construction parameters, not a
    random draw — two streams with equal parameters see flash crowds at
    exactly the same simulated instants.
    """

    def __init__(
        self,
        generator: RequestGenerator,
        base_rate: float,
        multiplier: float,
        episode_interval: float,
        episode_duration: float,
        mean_holding: float,
        first_episode: float = 0.0,
        seed: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(generator, mean_holding, seed, limit)
        require_positive("base_rate", base_rate)
        require_positive("multiplier", multiplier)
        require_positive("episode_interval", episode_interval)
        require_positive("episode_duration", episode_duration)
        if multiplier < 1.0:
            raise RequestError(f"multiplier must be >= 1, got {multiplier}")
        if episode_duration > episode_interval:
            raise RequestError(
                f"need episode_duration <= episode_interval, got "
                f"({episode_duration}, {episode_interval})"
            )
        if not 0 <= first_episode < math.inf:
            raise RequestError(
                f"first_episode must be finite and >= 0, got {first_episode}"
            )
        self.base_rate = base_rate
        self.multiplier = multiplier
        self.episode_interval = episode_interval
        self.episode_duration = episode_duration
        self.first_episode = first_episode

    def in_episode(self, time: float) -> bool:
        """Whether ``time`` falls inside a flash-crowd episode."""
        if time < self.first_episode:
            return False
        phase = (time - self.first_episode) % self.episode_interval
        return phase < self.episode_duration

    def _rate(self, time: float) -> float:
        if self.in_episode(time):
            return self.base_rate * self.multiplier
        return self.base_rate

    def _ceiling(self) -> float:
        return self.base_rate * self.multiplier


class SequenceStream(ArrivalStream):
    """A materialized request list as a stream (the paper's model).

    Arrivals are ``spacing`` apart and depart after ``holding_time``
    (``None``, the default, means never); :meth:`from_events` instead
    takes each request's arrival and holding time from a timed
    arrival/departure list.  Drawing state is just an index, so
    checkpoint/restore works as long as the resuming process rebuilds the
    same list (same generator seed / figure series).
    """

    def __init__(
        self,
        requests: Sequence[MulticastRequest],
        spacing: float = 1.0,
        holding_time: Optional[float] = None,
    ) -> None:
        super().__init__(limit=len(requests))
        require_positive("spacing", spacing)
        if holding_time is not None:
            require_positive("holding_time", holding_time)
        self._requests = list(requests)
        self.spacing = spacing
        self.holding_time = holding_time
        #: Per-request ``(arrival time, holding time)``, set only by
        #: :meth:`from_events`; ``None`` means evenly spaced arrivals.
        self._timing: Optional[List[Tuple[float, Optional[float]]]] = None

    @classmethod
    def from_events(cls, events: Iterable[RequestEvent]) -> "SequenceStream":
        """The arrivals of a timed arrival/departure list, as a stream.

        Each arrival keeps its time; a request's departure event becomes
        its holding time, ``departure - arrival``, which adds back to the
        exact departure instant (``a + ((a + h) - a) == a + h`` in IEEE
        round-to-nearest).  A request without a departure never departs.
        """
        events = list(events)
        departures = {
            event.request.request_id: event.time
            for event in events
            if event.kind is EventKind.DEPARTURE
        }
        arrivals = [
            event for event in events if event.kind is EventKind.ARRIVAL
        ]
        stream = cls([event.request for event in arrivals])
        timing: List[Tuple[float, Optional[float]]] = []
        for event in arrivals:
            departs = departures.get(event.request.request_id)
            timing.append(
                (event.time, None if departs is None else departs - event.time)
            )
        stream._timing = timing
        return stream

    def _draw(self) -> Optional[Arrival]:
        index = self.produced
        if index >= len(self._requests):
            return None
        if self._timing is None:
            return Arrival(
                index * self.spacing, self._requests[index], self.holding_time
            )
        time, holding = self._timing[index]
        return Arrival(time, self._requests[index], holding)


class FigureStream(ArrivalStream):
    """A :class:`RequestGenerator` as a one-by-one adversarial stream.

    The lazy equivalent of ``generator.generate(n)`` + unit-spaced
    arrivals: request bodies are drawn on demand, nothing is
    materialized, and ``holding_time=None`` keeps the paper's
    no-departure semantics (pass a positive ``holding_time`` for a
    fixed-residence churn variant).
    """

    def __init__(
        self,
        generator: RequestGenerator,
        limit: Optional[int] = None,
        spacing: float = 1.0,
        holding_time: Optional[float] = None,
    ) -> None:
        super().__init__(limit)
        require_positive("spacing", spacing)
        if holding_time is not None:
            require_positive("holding_time", holding_time)
        self.generator = generator
        self.spacing = spacing
        self.holding_time = holding_time

    def _draw(self) -> Optional[Arrival]:
        return Arrival(
            self.produced * self.spacing,
            self.generator.next_request(),
            self.holding_time,
        )

    def state(self) -> dict:
        base = super().state()
        base["generator"] = self.generator.state()
        return base

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.generator.restore(state["generator"])


def bounded_pareto(
    rng: random.Random, alpha: float, low: int, high: int
) -> int:
    """Draw an integer from a bounded Pareto distribution on [low, high].

    Inverse-CDF sampling of the continuous bounded Pareto
    ``F⁻¹(u) = L / (1 − u·(1 − (L/H)^α))^(1/α)`` followed by a floor,
    clamped to the bounds.  Small ``alpha`` (≈1) gives a heavy tail —
    most draws near ``low`` with occasional draws near ``high``.
    """
    require_positive("alpha", alpha)
    if not 1 <= low <= high:
        raise RequestError(f"need 1 <= low <= high, got ({low}, {high})")
    if low == high:
        return low
    u = rng.random()
    ratio = (low / high) ** alpha
    value = low / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)
    return max(low, min(int(value), high))


class ParetoGroupGenerator(RequestGenerator):
    """Request bodies with heavy-tailed (bounded Pareto) group sizes.

    The uniform destination-count draw of :class:`RequestGenerator` is
    replaced by a bounded Pareto draw on ``[min_group, max_group]``:
    most requests are small multicasts, a heavy tail are near-broadcast
    groups — the group-size shape observed in IPTV / streaming traces.
    All other fields (source, bandwidth, chain) keep the paper's
    distributions, and the generator inherits ``state()/restore()``
    unchanged (one RNG drives every draw).
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[WorkloadConfig] = None,
        alpha: float = 1.2,
        min_group: int = 1,
        max_group: Optional[int] = None,
    ) -> None:
        super().__init__(graph, config)
        cap = len(self._nodes) - 1
        if max_group is None:
            max_group = cap
        if not 1 <= min_group <= max_group <= cap:
            raise RequestError(
                f"need 1 <= min_group <= max_group <= |V|-1, got "
                f"({min_group}, {max_group}, cap {cap})"
            )
        require_positive("alpha", alpha)
        self.alpha = alpha
        self.min_group = min_group
        self.max_group = max_group

    def next_request(self) -> MulticastRequest:
        rng = self._rng
        source = rng.choice(self._nodes)
        count = bounded_pareto(rng, self.alpha, self.min_group, self.max_group)
        candidates = [node for node in self._nodes if node != source]
        destinations = rng.sample(candidates, count)
        bandwidth = rng.uniform(*self.config.bandwidth_range)
        lo, hi = self.config.chain_length_range
        chain = random_service_chain(rng, min_length=lo, max_length=hi)
        request = MulticastRequest.create(
            request_id=self._next_id,
            source=source,
            destinations=destinations,
            bandwidth=bandwidth,
            chain=chain,
        )
        self._next_id += 1
        return request


#: The stream families :func:`make_stream` knows how to build.
WORKLOAD_FAMILIES = ("poisson", "diurnal", "flash-crowd", "pareto", "figure")


def make_stream(
    workload: str,
    graph: Graph,
    seed: int = 0,
    limit: Optional[int] = None,
    arrival_rate: float = 1.0,
    mean_holding: float = 40.0,
    dmax_ratio: object = None,
) -> ArrivalStream:
    """Build a named workload stream over ``graph``.

    One seed derives everything: request bodies use ``seed``, timing
    uses ``seed + 1`` — so two streams with the same ``(workload, graph,
    seed, ...)`` are bit-identical, and shards with distinct seeds are
    independent.

    Args:
        workload: one of :data:`WORKLOAD_FAMILIES`.  ``"figure"`` is the
            paper's one-by-one model (no departures); the others produce
            churn.
        graph: the topology requests are drawn over.
        seed: base RNG seed.
        limit: number of arrivals (``None`` = unbounded; required to be
            set by callers that iterate to exhaustion).
        arrival_rate: mean arrivals per unit time (ignored by
            ``"figure"``).  Diurnal swings between ``0.25×`` and ``1×``
            this rate; flash crowds multiply it 5× during episodes.
        mean_holding: mean residence time of admitted requests.
        dmax_ratio: optional override of the generator's
            ``D_max / |V|`` (defaults to the paper's range).
    """
    config_kwargs = {"seed": seed}
    if dmax_ratio is not None:
        config_kwargs["dmax_ratio"] = dmax_ratio
    config = WorkloadConfig(**config_kwargs)
    timing_seed = seed + 1
    if workload == "figure":
        return FigureStream(RequestGenerator(graph, config), limit=limit)
    if workload == "poisson":
        return PoissonStream(
            RequestGenerator(graph, config),
            arrival_rate=arrival_rate,
            mean_holding=mean_holding,
            seed=timing_seed,
            limit=limit,
        )
    if workload == "diurnal":
        return DiurnalStream(
            RequestGenerator(graph, config),
            base_rate=arrival_rate * 0.25,
            peak_rate=arrival_rate,
            period=1440.0,
            mean_holding=mean_holding,
            seed=timing_seed,
            limit=limit,
        )
    if workload == "flash-crowd":
        return FlashCrowdStream(
            RequestGenerator(graph, config),
            base_rate=arrival_rate,
            multiplier=5.0,
            episode_interval=500.0,
            episode_duration=50.0,
            mean_holding=mean_holding,
            first_episode=100.0,
            seed=timing_seed,
            limit=limit,
        )
    if workload == "pareto":
        return PoissonStream(
            ParetoGroupGenerator(graph, config),
            arrival_rate=arrival_rate,
            mean_holding=mean_holding,
            seed=timing_seed,
            limit=limit,
        )
    raise RequestError(
        f"unknown workload {workload!r}; choose from {WORKLOAD_FAMILIES}"
    )
