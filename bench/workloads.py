"""The benchmark's workloads and the loop that measures one of them.

A workload is a fixed *pass*: a seeded input of a fixed number of requests
served from a freshly built network.  A run repeats the pass until its
time is up, at least twice, and keeps only the passes that completed, so
both commits of a comparison measure the same pass however fast they are,
and every completed pass of a run must end with the same decision digest.

``bench/run.py`` runs this file in a fresh interpreter per workload::

    python3 bench/workloads.py measure --workload cp-geant-churn --seed 1 --seconds 25 --trace 0
    python3 bench/workloads.py ready --workload cp-geant-churn --seed 1

``measure`` prints the raw measurements as one JSON object on its last
line; ``ready`` builds one pass's inputs, prints ``ready`` and exits (the
set-up time probe).  Both need ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.common import build_real_network, make_requests
from repro.core import appro_multi, appro_multi_reference, validate_pseudo_tree
from repro.exceptions import InfeasibleRequestError
from repro.network.sdn import SDNetwork
from repro.stream.engine import StreamEngine
from repro.stream.shard import StreamRunConfig, build_engine
from repro.workload.request import MulticastRequest

import layers

DEFAULT_SEED = 20170605  # ICDCS 2017

#: ``Appro_Multi`` server budget K (the paper's evaluation default).
APPRO_MAX_SERVERS = 3
#: ``D_max / |V|`` of the batch requests (the Fig. 5-6 upper end).
APPRO_DMAX_RATIO = 0.2
#: Batch requests per pass re-solved by the seed engine as an oracle.
APPRO_ORACLE_SAMPLE = 5

#: Relative slack when comparing a residual with its capacity.
_RESIDUAL_TOLERANCE = 1e-6
#: Relative slack when comparing a batch tree's cost with the oracle's.
_COST_TOLERANCE = 1e-9

_clock = time.perf_counter


@dataclass
class PassResult:
    """What one completed pass measured.

    ``outputs`` holds what :meth:`verify` needs beyond the pass inputs
    (the batch's trees); it is dropped once the pass is verified.
    """

    #: Service time of each request.
    latencies: List[float]
    #: Wall time of the fold: service plus drawing each arrival.
    fold_seconds: float
    digest: str
    admitted: int
    failed: int
    peak_active: int = 0
    outputs: List[Any] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.latencies)


def _report_failure(request_id: Any) -> None:
    print(f"request {request_id!r} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _residual_errors(network: SDNetwork, restored: bool) -> List[str]:
    """Residuals outside ``[0, capacity]``, or (``restored``) not at capacity."""
    errors = []
    states = [(link.endpoints, link) for link in network.links()]
    states += [(server.node, server) for server in network.servers()]
    for where, state in states:
        slack = _RESIDUAL_TOLERANCE * state.capacity
        low = state.capacity - slack if restored else -slack
        if not low <= state.residual <= state.capacity + slack:
            errors.append(
                f"residual {state.residual!r} of {where!r} outside "
                f"[{low!r}, {state.capacity!r}]"
                + (" after every departure" if restored else "")
            )
    return errors


@dataclass(frozen=True)
class StreamWorkload:
    """``Online_CP`` (``calibrated_online_cp``) over a Poisson churn stream.

    One pass serves ``requests`` arrivals from an empty network; each
    latency sample is one ``StreamEngine.process_one`` call, which drains
    due departures first, and the fold time also covers drawing the
    arrival from the stream.
    """

    topology: str
    arrival_rate: float
    requests: int

    def prepare(self, seed: int, requests: int) -> StreamEngine:
        return build_engine(
            StreamRunConfig(
                topology=self.topology,
                seed=seed,
                requests=requests,
                arrival_rate=self.arrival_rate,
            )
        )

    def run_pass(
        self, engine: StreamEngine, deadline: Optional[float]
    ) -> Optional[PassResult]:
        """Serve the whole stream, or return ``None`` at ``deadline``."""
        stream = engine.stream
        latencies: List[float] = []
        fold = 0.0
        failed = 0
        while True:
            start = _clock()
            arrival = stream.next_arrival()
            if arrival is None:
                break
            drawn = _clock()
            try:
                engine.process_one(arrival)
            except Exception:
                failed += 1
                _report_failure(arrival.request.request_id)
            done = _clock()
            fold += done - start
            latencies.append(done - drawn)
            if deadline is not None and done > deadline:
                return None
        stats = engine.stats
        return PassResult(
            latencies=latencies,
            fold_seconds=fold,
            digest=stats.digest,
            admitted=stats.admitted,
            failed=failed,
            peak_active=stats.peak_active,
        )

    def verify(self, engine: StreamEngine, result: PassResult) -> List[str]:
        """No residual out of range; every one back at capacity once the
        admitted requests have all departed."""
        network = engine.algorithm.network
        errors = _residual_errors(network, restored=False)
        engine.run(max_events=0, drain=True)
        return errors + _residual_errors(network, restored=True)


BatchInputs = Tuple[SDNetwork, List[MulticastRequest]]


@dataclass(frozen=True)
class BatchWorkload:
    """``appro_multi`` (K=3) on idle GÉANT, one request after another.

    One pass solves ``requests`` independent requests on a freshly built
    network, so the unit-cost shortest-path cache starts cold each pass.
    The digest chains ``(request id, sorted servers, repr(total cost))``.
    """

    requests: int

    def prepare(self, seed: int, requests: int) -> BatchInputs:
        network = build_real_network("GEANT", 0)
        batch = make_requests(network.graph, requests, APPRO_DMAX_RATIO, seed + 1)
        return network, batch

    def run_pass(
        self, inputs: BatchInputs, deadline: Optional[float]
    ) -> Optional[PassResult]:
        """Solve the whole batch, or return ``None`` at ``deadline``."""
        network, batch = inputs
        latencies: List[float] = []
        trees = []
        failed = 0
        for request in batch:
            start = _clock()
            try:
                tree = appro_multi(network, request, APPRO_MAX_SERVERS)
            except InfeasibleRequestError:
                tree = None
            except Exception:
                tree = None
                failed += 1
                _report_failure(request.request_id)
            done = _clock()
            latencies.append(done - start)
            trees.append(tree)
            if deadline is not None and done > deadline:
                return None
        digest = ""
        for request, tree in zip(batch, trees):
            servers = sorted(map(repr, tree.servers)) if tree else None
            cost = tree.total_cost if tree else None
            digest = hashlib.sha256(
                f"{digest}|{request.request_id!r}|{servers}|{cost!r}".encode()
            ).hexdigest()
        return PassResult(
            latencies=latencies,
            fold_seconds=sum(latencies),
            digest=digest,
            admitted=sum(tree is not None for tree in trees),
            failed=failed,
            outputs=trees,
        )

    def verify(self, inputs: BatchInputs, result: PassResult) -> List[str]:
        """Every tree is a valid pseudo-multicast tree, and a sample costs
        what the seed engine's tree costs (the two sum in different orders,
        so the last bits may differ)."""
        network, batch = inputs
        errors = []
        oracle_every = max(1, len(batch) // APPRO_ORACLE_SAMPLE)
        for index, (request, tree) in enumerate(zip(batch, result.outputs)):
            if tree is None:
                continue
            try:
                validate_pseudo_tree(network, tree)
            except AssertionError as exc:
                errors.append(f"request {request.request_id!r}: {exc}")
            if index % oracle_every:
                continue
            oracle = appro_multi_reference(network, request, APPRO_MAX_SERVERS)
            if not math.isclose(
                tree.total_cost, oracle.total_cost, rel_tol=_COST_TOLERANCE
            ):
                errors.append(
                    f"request {request.request_id!r}: appro_multi cost "
                    f"{tree.total_cost!r}, seed engine {oracle.total_cost!r}"
                )
        return errors


Workload = Union[StreamWorkload, BatchWorkload]

#: Each pass takes about 8 s on a 2-core box, so the two passes every run
#: needs still fit in 25 s when the box runs 1.5x slower; see
#: bench/README.md for why each workload exists.
WORKLOADS: Dict[str, Workload] = {
    "cp-geant-churn": StreamWorkload("geant", 5.0, 4000),
    "cp-geant-overload": StreamWorkload("geant", 100.0, 12000),
    "cp-gtitm200-churn": StreamWorkload("gt_itm:200", 5.0, 400),
    "appro-geant-batch": BatchWorkload(2400),
}


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _rate(result: PassResult) -> float:
    return result.requests / result.fold_seconds


def _run_passes(
    workload: Workload,
    seed: int,
    requests: int,
    deadline: float,
    minimum: int,
    tracer: Optional[layers.Tracer] = None,
    totals: Optional[layers.Counts] = None,
) -> List[PassResult]:
    """Complete passes until ``deadline``; the first ``minimum`` always run
    to the end, whatever the deadline."""
    results: List[PassResult] = []
    while len(results) < minimum or _clock() < deadline:
        inputs = workload.prepare(seed, requests)
        if tracer is not None:
            tracer.counts.clear()
        result = workload.run_pass(
            inputs, deadline if len(results) >= minimum else None
        )
        if result is None:
            break
        if tracer is not None and totals is not None:
            totals.add(tracer.counts)
        result.errors = workload.verify(inputs, result)
        result.outputs = []
        results.append(result)
    return results


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    requests: Optional[int] = None,
) -> Dict[str, Any]:
    """Measure one workload for ``seconds``; the raw numbers as a dict.

    Untraced, at least two passes run bare and give the end-to-end
    metrics.  The passes are identical, so each request's service time is
    taken as the fastest of its executions, which filters out bursts of
    interference on a shared host; the latency percentiles are over those.
    Traced, one bare pass is followed by traced passes, which give the
    per-layer metrics; every traced digest must equal the bare one.
    """
    workload = WORKLOADS[name]
    size = requests if requests is not None else workload.requests
    deadline = _clock() + seconds
    tracer = layers.Tracer()
    totals = layers.Counts()
    traced: List[PassResult] = []
    if trace:
        bare = _run_passes(workload, seed, size, deadline=0.0, minimum=1)
        with tracer.installed():
            traced = _run_passes(workload, seed, size, deadline, 1, tracer, totals)
    else:
        bare = _run_passes(workload, seed, size, deadline, minimum=2)

    first = bare[0]
    errors: List[str] = []
    for result in bare + traced:
        errors += result.errors
        if result.digest != first.digest:
            errors.append(
                f"pass digest {result.digest} differs from the first pass's "
                f"{first.digest}"
            )
    latencies = sorted(map(min, zip(*(result.latencies for result in bare))))
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "pass_requests": size,
        "passes": len(bare),
        "attempted": sum(result.requests for result in bare),
        "failed": sum(result.failed for result in bare),
        "digest": first.digest,
        "errors": errors,
        "pass_rates": [_rate(result) for result in bare],
        "latency_samples": len(latencies),
        "metrics": {
            "throughput_rps": sum(r.requests for r in bare)
            / sum(r.fold_seconds for r in bare),
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
            "admission_ratio": first.admitted / first.requests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
    }
    if trace:
        report["traced_passes"] = len(traced)
        report["traced_digest"] = traced[0].digest
        report["unresolved_bindings"] = tracer.missing
        report["layers"] = layers.layer_metrics(
            totals,
            requests=sum(result.requests for result in traced),
            fold_seconds=sum(result.fold_seconds for result in traced),
            admitted=sum(result.admitted for result in traced),
            peak_active=max(result.peak_active for result in traced),
            overhead_ratio=_rate(first)
            / statistics.median(_rate(r) for r in traced),
        )
    return report


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("measure", "ready"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)
    if args.mode == "ready":
        workload = WORKLOADS[args.workload]
        size = args.requests if args.requests is not None else workload.requests
        workload.prepare(args.seed, size)
        print("ready", flush=True)
        return 0
    report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.requests
    )
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
