"""Checkpoint/restore for stream runs: kill a run, resume bit-identically.

A million-request stream run is too long to lose to a crash.  Every
``checkpoint_every`` arrivals the :class:`~repro.stream.engine.
StreamEngine` hands itself to :func:`save_checkpoint`, which serializes
*everything the next decision depends on* into one JSON document:

- the arrival stream's drawing state (RNGs, produced count, clock),
- every link/server residual and up/down flag of the network,
- the live admissions, in admission order, each with its request body,
  booked reservations, routing hops, servers, and departure time,
- the departure priority queue and its tie-break sequence counter,
- the engine's rolling statistics (including the chained decision
  digest) and, when attached, the telemetry registry snapshot and
  emitter mirror.

:func:`restore_into` replays that document into a *freshly built*
engine (same topology seed, same algorithm construction, same stream
parameters — recorded in the checkpoint's ``meta`` by the caller):
residuals are restored exactly (JSON float round-trip is exact in
Python), each admission's reservations are re-homed into an adopted
:class:`~repro.network.allocation.AllocationTransaction` and re-handed
to the algorithm via ``adopt_admission``, controller rules are
reinstalled in admission order, and the stream/stats/emitter state is
adopted wholesale.  Because every online decision is a pure function of
(residuals, request), the resumed run reproduces the straight-through
decision sequence bit-for-bit — the chained digest is the witness, and
``tests/stream`` kills a run at every checkpoint boundary to prove it.

Writes are atomic (temp file + ``os.replace``), so a crash *during* a
checkpoint leaves the previous checkpoint intact.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
from typing import Any, Dict, Hashable, List, Optional

from repro.exceptions import NetworkModelError, ReproError, SimulationError
from repro.network.allocation import AllocationTransaction
from repro.network.sdn import NetworkSnapshot
from repro.nfv.functions import FunctionType
from repro.nfv.service_chain import ServiceChain
from repro.obs.registry import (
    enabled as _obs_enabled,
    merge as _obs_merge,
    reset as _obs_reset,
    snapshot as _obs_snapshot,
)
from repro.stream.engine import StreamEngine, StreamStats
from repro.workload.request import MulticastRequest

__all__ = [
    "CheckpointError",
    "FORMAT",
    "INCIDENTAL_COUNTERS",
    "INCIDENTAL_TIMERS",
    "VERSION",
    "capture",
    "load_checkpoint",
    "restore_into",
    "save_checkpoint",
]

FORMAT = "repro-stream-checkpoint"
VERSION = 1

#: Telemetry counters that legitimately differ between a resumed run and
#: its straight-through twin.  The decision stream is bit-identical, but a
#: fresh process starts with *cold caches*: the shortest-path LRU refills
#: its slots once after restore, so its eviction count ends short by at
#: most the LRU capacity.  Wall-clock-valued timers differ too (they
#: measure this process, not the workload).  Everything else — decision
#: counters, solver call counts, value-based histograms — must match
#: exactly, and the differential tests assert that after excluding this
#: set.
INCIDENTAL_COUNTERS = frozenset({"spregistry.evictions"})

#: Timer names whose *count* differs on resume: the ``stream_run`` span
#: wraps each ``StreamEngine.run()`` invocation, and a resumed run calls
#: ``run()`` once before and once after the kill, so its count records
#: invocations, not workload.  All other timer counts must match exactly
#: (their totals are wall-clock-valued and never compare bit-for-bit).
INCIDENTAL_TIMERS = frozenset({"stream_run"})


class CheckpointError(SimulationError):
    """A checkpoint document is missing, malformed, or incompatible."""


# ----------------------------------------------------------------------
# node codec: JSON has no tuple values and only string object keys, so
# nodes (ints, strings, or tuples for grid-style topologies) are encoded
# as values inside lists, with tuples wrapped in a tagged object.
# ----------------------------------------------------------------------
def encode_node(node: Hashable) -> Any:
    """JSON-safe encoding of a topology node or request id."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, tuple):
        return {"t": [encode_node(item) for item in node]}
    raise CheckpointError(
        f"cannot serialize node {node!r} of type {type(node).__name__}"
    )


def decode_node(value: Any) -> Hashable:
    """Inverse of :func:`encode_node`."""
    if isinstance(value, dict):
        return tuple(decode_node(item) for item in value["t"])
    return value


def _encode_request(body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "request_id": encode_node(body["request_id"]),
        "source": encode_node(body["source"]),
        "destinations": [encode_node(d) for d in body["destinations"]],
        "bandwidth": body["bandwidth"],
        "chain": list(body["chain"]),
    }


def _decode_request(data: Dict[str, Any]) -> MulticastRequest:
    return MulticastRequest.create(
        request_id=decode_node(data["request_id"]),
        source=decode_node(data["source"]),
        destinations=[decode_node(d) for d in data["destinations"]],
        bandwidth=float(data["bandwidth"]),
        chain=ServiceChain.of(
            *(FunctionType(kind) for kind in data["chain"])
        ),
    )


def _encode_active(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "request": _encode_request(record["request"]),
        "departs_at": record["departs_at"],
        "bandwidth_ops": [
            [encode_node(u), encode_node(v), amount]
            for u, v, amount in record["bandwidth_ops"]
        ],
        "compute_ops": [
            [encode_node(node), amount]
            for node, amount in record["compute_ops"]
        ],
        "hops": [
            [encode_node(u), encode_node(v)] for u, v in record["hops"]
        ],
        "servers": [encode_node(s) for s in record["servers"]],
    }


def _decode_active(data: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "request": {
            "request_id": decode_node(data["request"]["request_id"]),
            "source": decode_node(data["request"]["source"]),
            "destinations": [
                decode_node(d) for d in data["request"]["destinations"]
            ],
            "bandwidth": float(data["request"]["bandwidth"]),
            "chain": list(data["request"]["chain"]),
        },
        "departs_at": data["departs_at"],
        "bandwidth_ops": [
            (decode_node(u), decode_node(v), float(amount))
            for u, v, amount in data["bandwidth_ops"]
        ],
        "compute_ops": [
            (decode_node(node), float(amount))
            for node, amount in data["compute_ops"]
        ],
        "hops": [
            (decode_node(u), decode_node(v)) for u, v in data["hops"]
        ],
        "servers": [decode_node(s) for s in data["servers"]],
    }


def _require_failure_free(engine: StreamEngine) -> None:
    if engine.failure_stats is not None:
        raise CheckpointError(
            f"{FORMAT} v{VERSION} has no failure state: an engine with a "
            "failure schedule (or audit) cannot be checkpointed or restored"
        )


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture(
    engine: StreamEngine, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Serialize a running engine into one JSON-ready document.

    ``meta`` is the caller's rebuild recipe (workload name, topology,
    seeds, algorithm parameters) — the checkpoint layer stores it
    verbatim and :func:`restore_into` never reads it; the CLI uses it to
    reconstruct the engine before restoring.

    Raises:
        CheckpointError: for an engine with a failure schedule — format
            v1 records no failure state (down elements' pending
            recoveries, dropped requests, repaired trees).
    """
    _require_failure_free(engine)
    network = engine.algorithm.network
    links = [
        [
            encode_node(state.endpoints[0]),
            encode_node(state.endpoints[1]),
            state.residual,
            state.up,
        ]
        for state in network.links()
    ]
    servers = [
        [encode_node(state.node), state.residual, state.up]
        for state in network.servers()
    ]
    heap = engine.heap_state()
    document: Dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "meta": dict(meta or {}),
        "stream": engine.stream.state(),
        "stats": engine.stats.state(),
        "network": {"links": links, "servers": servers},
        "active": [
            _encode_active(record)
            for record in engine.active_records().values()
        ],
        "heap": {
            "entries": [
                [when, seq, encode_node(rid)]
                for when, seq, rid in heap["entries"]
            ],
            "next_seq": heap["next_seq"],
        },
        "algorithm": {
            "admitted_total": engine.algorithm.admitted_count,
            "rejected_total": engine.algorithm.rejected_count,
        },
        "obs": _obs_snapshot() if _obs_enabled() else None,
        "emitter": (
            engine.emitter.state() if engine.emitter is not None else None
        ),
    }
    return document


def save_checkpoint(
    path: str, engine: StreamEngine, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Atomically write :func:`capture`'s document to ``path``.

    The document lands in a temp file in the same directory first and is
    moved into place with ``os.replace``, so a crash mid-write cannot
    corrupt an existing checkpoint.  Returns the document.
    """
    document = capture(engine, meta)
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".json", dir=directory
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(document, stream, sort_keys=True)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return document


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read and validate a checkpoint document."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON: {exc}"
        ) from exc
    if document.get("format") != FORMAT:
        raise CheckpointError(
            f"{path!r} is not a stream checkpoint "
            f"(format={document.get('format')!r})"
        )
    if document.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {document.get('version')!r} is not "
            f"supported (expected {VERSION})"
        )
    return document


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
#: The sections :func:`restore_into` reads; ``obs`` and ``emitter`` are
#: optional.
_REQUIRED_SECTIONS = ("network", "active", "heap", "stream", "stats", "algorithm")


def _check_keys(template: Any, value: Any, path: str) -> None:
    """Refuse ``value`` if it lacks a key of ``template``'s nested objects."""
    if not isinstance(template, dict):
        return
    if not isinstance(value, dict):
        raise CheckpointError(f"checkpoint {path!r} is not an object")
    for key, expected in template.items():
        if key not in value:
            raise CheckpointError(f"checkpoint {path!r} has no {key!r}")
        _check_keys(expected, value[key], f"{path}.{key}")


def restore_into(engine: StreamEngine, document: Dict[str, Any]) -> None:
    """Replay a checkpoint document into a freshly built engine.

    The engine must have been constructed exactly as the original run's
    was (same topology and ``build_sdn`` seed, same algorithm class and
    parameters, same stream family and parameters — the ``meta`` block
    records them) and must not have processed anything yet.  After this
    call the engine's next ``run()`` continues the original decision
    sequence bit-for-bit.  The engine's ``stream`` and ``stats`` are
    replaced by restored copies.

    Raises:
        CheckpointError: before anything is restored, if the engine is
            not fresh or has a failure schedule, if the document lacks a
            section or a key that the restore reads, holds a malformed
            or wrong-typed entry, or does not fit this network (other
            links or servers, or a residual outside ``[0, capacity]``).
    """
    _require_failure_free(engine)
    if engine.stats.processed:
        raise CheckpointError(
            "restore target must be a fresh engine (it has already "
            f"processed {engine.stats.processed} arrivals)"
        )
    # The fresh engine's own capture holds every key that the section
    # readers below read, so it is the template a document must match.
    template = capture(engine)
    for section in _REQUIRED_SECTIONS:
        if section not in document:
            raise CheckpointError(f"checkpoint has no {section!r} section")
        _check_keys(template[section], document[section], section)
    network = engine.algorithm.network
    try:
        link_residuals = {}
        link_up = {}
        for u_enc, v_enc, residual, up in document["network"]["links"]:
            key = (decode_node(u_enc), decode_node(v_enc))
            link_residuals[key] = float(residual)
            link_up[key] = bool(up)
        server_residuals = {}
        server_up = {}
        for node_enc, residual, up in document["network"]["servers"]:
            node = decode_node(node_enc)
            server_residuals[node] = float(residual)
            server_up[node] = bool(up)
        active = [
            (_decode_request(encoded["request"]), _decode_active(encoded))
            for encoded in document["active"]
        ]
        heap = {
            "entries": [
                [float(when), int(seq), decode_node(rid)]
                for when, seq, rid in document["heap"]["entries"]
            ],
            "next_seq": int(document["heap"]["next_seq"]),
        }
        admitted_total = int(document["algorithm"]["admitted_total"])
        rejected_total = int(document["algorithm"]["rejected_total"])
        # Decoded into scratch objects now, so that a wrong-typed value is
        # refused before the network is touched; installed further down.
        stream = copy.deepcopy(engine.stream)
        stream.restore(document["stream"])
        stats = StreamStats()
        stats.restore(document["stats"])
    except (KeyError, IndexError, TypeError, ValueError, ReproError) as exc:
        raise CheckpointError(f"checkpoint has a malformed entry: {exc!r}") from exc
    try:
        network.restore(
            NetworkSnapshot(
                link_residuals=link_residuals,
                server_residuals=server_residuals,
            )
        )
    except NetworkModelError as exc:
        raise CheckpointError(
            f"checkpoint does not fit this network: {exc}"
        ) from exc
    # A freshly built network is all-up; only transitions are needed.
    for (u, v), up in link_up.items():
        if not up:
            network.fail_link(u, v)
    for node, up in server_up.items():
        if not up:
            network.fail_server(node)

    # Live admissions, replayed in admission order: reservations are
    # already reflected in the restored residuals, so each transaction
    # is *adopted* (no allocation happens) and handed to the algorithm;
    # controller rules are reinstalled from the recorded hops.
    for request, record in active:
        transaction = AllocationTransaction.adopt(
            network,
            record["bandwidth_ops"],
            record["compute_ops"],
        )
        engine.algorithm.adopt_admission(request, transaction)
        if engine.controller is not None:
            engine.controller.install_tree(
                request.request_id,
                list(record["hops"]),
                list(record["servers"]),
            )
        engine.adopt_active(request.request_id, record)

    engine.restore_heap(heap)
    engine.stream = stream
    engine.stats = stats
    # The base-class counters are restored in place: no public mutator
    # exists because nothing but a checkpoint may move them without a
    # decision.
    engine.algorithm._admitted_total = admitted_total
    engine.algorithm._rejected_total = rejected_total
    if document.get("obs") is not None and _obs_enabled():
        _obs_reset()
        _obs_merge(document["obs"])
    if engine.emitter is not None and document.get("emitter") is not None:
        engine.emitter.restore_state(document["emitter"])
