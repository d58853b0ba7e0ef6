"""Per-layer self time, measured from the benchmark side.

The traced run wraps the binding each caller resolves (a module global or
a class attribute) with a timing shim, runs the workload, and restores the
original objects.  No file of the program changes: the spans live here.

A span's *self* time is its duration minus the time of the wrapped calls
made inside it, so the self times of all spans add up to the time spent
inside the outermost wrapped calls.  Spans are aggregated per name in
memory (call count, self seconds, calls that made no wrapped call, calls
that returned ``None``) rather than stored one by one.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(binding, span name)`` for every wrapped entry point.  A binding is
#: ``module:attribute`` or ``module:Class.attribute``; several bindings may
#: share a span name, which then counts as one layer.  Modules are looked
#: up with :func:`importlib.import_module`, never by attribute access on the
#: package: ``repro.core`` re-exports a *function* named ``appro_multi``,
#: so ``repro.core.appro_multi`` resolved through the package is that
#: function, not the module whose globals ``appro_multi`` calls through.
BINDINGS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.online_base:OnlineAlgorithm.process", "online_cp.decide"),
    ("repro.core.online_base:OnlineAlgorithm.depart", "online_cp.depart"),
    ("repro.core.cost_model:CostModel.weight_graph", "cost_model.weight_graph"),
    ("repro.core.cost_model:ExponentialCostModel.edge_weight", "cost_model.price"),
    ("repro.core.cost_model:ExponentialCostModel.node_weight", "cost_model.price"),
    ("repro.graph.spcache:VersionedCacheRegistry.get", "spcache.registry"),
    ("repro.graph.spcache:ShortestPathCache.tree", "spcache.tree"),
    ("repro.graph.spcache:compile_csr", "csr.compile"),
    ("repro.graph.spcache:dijkstra_csr", "csr.dijkstra"),
    ("repro.core.online_cp:kmb_steiner_tree_cached", "steiner.kmb"),
    ("repro.graph.tree:RootedTree.lca_of_set", "tree.lca"),
    ("repro.graph.tree:RootedTree.path_between", "tree.lca"),
    # The constructor: the module global online_cp calls is replaced by a
    # function; the class itself (patched above) is untouched.
    ("repro.core.online_cp:RootedTree", "tree.lca"),
    ("repro.core.online_base:try_allocate", "admission.allocate"),
    ("repro.core.online_base:release_tree", "admission.release"),
    ("repro.stream.engine:StreamEngine.process_one", "stream.engine"),
    ("repro.stream.engine:StreamStats.record_decision", "stream.record"),
    ("repro.stream.workloads:ArrivalStream.next_arrival", "stream.next_arrival"),
    ("repro.core.appro_multi:appro_multi_detailed", "appro_multi"),
    ("repro.core.appro_multi:build_context", "auxiliary.build_context"),
    ("repro.core.fasteval:CSRCombinationEvaluator.evaluate", "fasteval.evaluate"),
    (
        "repro.core.fasteval:CSRCombinationEvaluator.lower_bound",
        "fasteval.lower_bound",
    ),
)


def resolve(binding: str) -> Optional[Tuple[Any, str]]:
    """The ``(owner, attribute)`` a binding names, or ``None`` if absent.

    The attribute must be defined on the owner itself (not inherited), so
    that restoring it puts back exactly what was there.
    """
    module_name, _, path = binding.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = vars(owner).get(parent)
        if owner is None:
            return None
    if attribute not in vars(owner):
        return None
    return owner, attribute


class Counts:
    """Aggregated spans: per name, calls, self seconds, leaves and ``None``s."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_seconds: Dict[str, float] = {}
        #: Calls that made no wrapped call (a cache hit, for a cache layer).
        self.leaves: Dict[str, int] = {}
        #: Calls that returned ``None`` (a failed allocation, for admission).
        self.nones: Dict[str, int] = {}

    def add(self, other: "Counts") -> None:
        """Fold ``other`` into this aggregate."""
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_seconds, other.self_seconds),
            (self.leaves, other.leaves),
            (self.nones, other.nones),
        ):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value

    def clear(self) -> None:
        """Forget every span (in place: the shims hold these dicts)."""
        self.calls.clear()
        self.self_seconds.clear()
        self.leaves.clear()
        self.nones.clear()


class Tracer:
    """Installs timing shims on :data:`BINDINGS` and aggregates their spans."""

    def __init__(self) -> None:
        self.counts = Counts()
        #: Bindings that could not be resolved at the last install.
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _shim(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        counts = self.counts
        calls, own, leaves, nones = (
            counts.calls,
            counts.self_seconds,
            counts.leaves,
            counts.nones,
        )
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            # frame = [seconds inside wrapped children, wrapped child calls]
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own[name] = own.get(name, 0.0) + elapsed - frame[0]
                calls[name] = calls.get(name, 0) + 1
                if not frame[1]:
                    leaves[name] = leaves.get(name, 0) + 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
            if result is None:
                nones[name] = nones.get(name, 0) + 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every resolvable binding; restore all of them on exit."""
        self.missing = []
        try:
            for binding, name in BINDINGS:
                target = resolve(binding)
                if target is None:
                    self.missing.append(binding)
                    continue
                owner, attribute = target
                original = vars(owner)[attribute]
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, self._shim(name, original))
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)
            self._stack.clear()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    counts: Counts,
    requests: int,
    fold_seconds: float,
    admitted: int,
    peak_active: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``*.self_share`` is the layer's self time as a share of the traced
    request time (``fold_seconds``); ``trace.request_ms`` converts a share
    back to milliseconds per request.  ``calls_per_req`` divides by
    ``requests``.  A ratio whose base is zero reads 0.
    """

    def share(name: str) -> float:
        return _ratio(counts.self_seconds.get(name, 0.0), fold_seconds)

    def per_request(name: str) -> float:
        return _ratio(counts.calls.get(name, 0), requests)

    def leaf_ratio(name: str) -> float:
        return _ratio(counts.leaves.get(name, 0), counts.calls.get(name, 0))

    return {
        "cost_model.weight_graph.calls_per_req": per_request(
            "cost_model.weight_graph"
        ),
        "cost_model.weight_graph.self_share": share("cost_model.weight_graph"),
        "spcache.registry.hit_ratio": leaf_ratio("spcache.registry"),
        "csr.dijkstra.calls_per_req": per_request("csr.dijkstra"),
        "csr.dijkstra.self_share": share("csr.dijkstra"),
        "csr.compile.calls_per_req": per_request("csr.compile"),
        "csr.compile.self_share": share("csr.compile"),
        "spcache.tree.calls_per_req": per_request("spcache.tree"),
        "spcache.tree.hit_ratio": leaf_ratio("spcache.tree"),
        "spcache.tree.self_share": share("spcache.tree"),
        "steiner.kmb.calls_per_req": per_request("steiner.kmb"),
        "steiner.kmb.self_share": share("steiner.kmb"),
        "online_cp.useful_kmb_ratio": _ratio(
            admitted, counts.calls.get("steiner.kmb", 0)
        ),
        "tree.lca.self_share": share("tree.lca"),
        "cost_model.price.calls_per_req": per_request("cost_model.price"),
        "cost_model.price.self_share": share("cost_model.price"),
        "online_cp.decide.self_share": share("online_cp.decide"),
        "admission.allocate.self_share": share("admission.allocate"),
        "admission.allocate.fail_ratio": _ratio(
            counts.nones.get("admission.allocate", 0),
            counts.calls.get("admission.allocate", 0),
        ),
        "admission.release.self_share": share("admission.release"),
        "stream.engine.self_share": share("stream.engine"),
        "stream.record.self_share": share("stream.record"),
        "stream.next_arrival.self_share": share("stream.next_arrival"),
        "stream.peak_active": float(peak_active),
        "appro_multi.self_share": share("appro_multi"),
        "auxiliary.build_context.self_share": share("auxiliary.build_context"),
        "fasteval.evaluate.calls_per_req": per_request("fasteval.evaluate"),
        "fasteval.evaluate.self_share": share("fasteval.evaluate"),
        "fasteval.lower_bound.self_share": share("fasteval.lower_bound"),
        # Every combination gets a lower bound; only unpruned ones are
        # evaluated, so this is evaluated / (evaluated + pruned).
        "appro_multi.evaluated_ratio": _ratio(
            counts.calls.get("fasteval.evaluate", 0),
            counts.calls.get("fasteval.lower_bound", 0),
        ),
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage": _ratio(
            sum(counts.self_seconds.values()), fold_seconds
        ),
        "trace.request_ms": _ratio(fold_seconds, requests) * 1e3,
    }
