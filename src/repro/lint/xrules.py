"""Pass 2, cross-file half: rules that need the :class:`ProjectIndex`.

The per-file rules in :mod:`repro.lint.rules` see one module at a time.
The rules here check contracts that live *between* files:

- **RL009** — a ``state()``/``restore()`` pair must cover every mutable
  attribute the class (or any project-local base) assigns in ``__init__``
  and mutates elsewhere, or checkpoint/resume silently stops being
  bit-identical (the PR 8 contract).
- **RL010** — iterating a ``set`` in hash-salted order must never feed a
  digest/merge path or materialize an ordered output, or the chained
  decision digest stops being worker-count-invariant.
- **RL012** — the exported surface of the locked packages is diffed
  against a committed ``api_baseline.json``; intentional changes
  rebaseline with ``repro lint --update-api``.
- **transitive RL001/RL007** — the call graph extends the per-file raw
  Dijkstra / wall-clock rules one-or-more hops: a solver-side call into a
  helper that (transitively) reaches ``time.time()`` or a raw
  ``dijkstra()`` is flagged at the solver-side call site, so a suppressed
  sink cannot silently grow new callers.

Cross rules emit plain :class:`~repro.lint.core.Finding` objects and
honour the same ``# repro-lint: disable=...`` pragmas as the per-file
pass (the index serializes each file's suppression maps).
"""

from __future__ import annotations

import ast  # noqa: F401  (kept for symmetry with rules.py; fixtures import both)
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.lint.core import Finding
from repro.lint.project import ClassInfo, FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.rules import _SP_QUALIFIED, _WALL_CLOCK, UncachedShortestPath

__all__ = [
    "API_LOCKED_PACKAGES",
    "CROSS_RULES",
    "CheckpointStateDrift",
    "CrossRule",
    "DigestMergeOrderNondeterminism",
    "TransitiveSinkReach",
    "compute_api_surface",
    "diff_api_surface",
    "run_cross_rules",
]


class CrossRule:
    """Base class for one index-backed rule."""

    #: Stable identifier used in pragmas/baselines (may reuse a per-file
    #: id when the cross rule extends it transitively).
    id: str = ""
    name: str = ""
    rationale: str = ""
    hint: str = ""

    def check(self, index: ProjectIndex) -> List[Finding]:
        """Return every finding this rule sees in the indexed project."""
        raise NotImplementedError

    def _report(
        self,
        findings: List[Finding],
        module: ModuleInfo,
        line: int,
        col: int,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        """Append a finding unless a pragma in ``module`` suppresses it."""
        if module.is_suppressed(self.id, line):
            return
        findings.append(
            Finding(
                rule=self.id,
                path=module.path,
                line=line,
                col=col,
                message=message,
                hint=self.hint if hint is None else hint,
            )
        )


# ----------------------------------------------------------------------
# RL009 — checkpoint-state drift
# ----------------------------------------------------------------------

def _normalize(name: str) -> str:
    return name.lstrip("_")


def _key_covers(key: str, attr: str) -> bool:
    """Whether state key ``key`` plausibly serializes attribute ``attr``.

    Exact match after stripping leading underscores, or a one-sided
    underscore-prefix extension: ``timing_rng`` covers ``_timing``,
    ``next_id`` covers ``_next_id``.
    """
    normalized_key, normalized_attr = _normalize(key), _normalize(attr)
    return (
        normalized_key == normalized_attr
        or normalized_key.startswith(normalized_attr + "_")
        or normalized_attr.startswith(normalized_key + "_")
    )


class CheckpointStateDrift(CrossRule):
    """A ``state()`` dict misses a mutable attribute (or ``restore`` a key)."""

    id = "RL009"
    name = "checkpoint-state-drift"
    rationale = (
        "Bit-identical checkpoint/resume requires state() to serialize "
        "every attribute that is assigned in __init__ and mutated later; "
        "a missed field resumes with its constructor value and the replay "
        "diverges from the uninterrupted run on the first decision that "
        "touches it.  restore() must read every key state() writes, or "
        "the field round-trips to nowhere."
    )
    hint = (
        "add the attribute to state()/restore() (prefix-insensitive key "
        "names match: `_timing` <-> `timing_rng`), or suppress with a "
        "justification if the field is deliberately re-derived on resume"
    )
    #: Only the checkpointable layers carry the contract.
    _scope = ("repro/stream/", "repro/obs/", "repro/workload/")

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for module in sorted(index.modules.values(), key=lambda m: m.path):
            if not module.module.startswith(self._scope):
                continue
            for cls in module.classes.values():
                self._check_class(index, module, cls, findings)
        return findings

    def _chain(
        self, index: ProjectIndex, module: ModuleInfo, cls: ClassInfo
    ) -> List[ClassInfo]:
        """The class plus every project-local base, leaf first (BFS)."""
        chain: List[ClassInfo] = []
        seen: Set[str] = set()
        queue: List[Tuple[ModuleInfo, ClassInfo]] = [(module, cls)]
        while queue:
            owner, info = queue.pop(0)
            key = f"{owner.dotted}.{info.name}"
            if key in seen:
                continue
            seen.add(key)
            chain.append(info)
            for base in info.bases:
                base_module, base_info = index.lookup_symbol(base)
                if base_module is not None and isinstance(
                    base_info, ClassInfo
                ):
                    queue.append((base_module, base_info))
        return chain

    def _check_class(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        cls: ClassInfo,
        findings: List[Finding],
    ) -> None:
        chain = self._chain(index, module, cls)
        if not any(info.has_state for info in chain):
            return
        init_attrs: Dict[str, int] = {}
        mutated: Dict[str, int] = {}
        state_keys: Set[str] = set()
        restore_keys: Set[str] = set()
        any_restore = False
        for info in chain:
            for attr, line in info.init_attrs.items():
                init_attrs.setdefault(attr, line)
            for attr, line in info.mutated_attrs.items():
                mutated.setdefault(attr, line)
            state_keys.update(info.state_keys)
            restore_keys.update(info.restore_keys)
            any_restore = any_restore or info.has_restore
        line = cls.state_lineno if cls.has_state else cls.lineno
        for attr in sorted(set(init_attrs) & set(mutated)):
            if not any(_key_covers(key, attr) for key in state_keys):
                self._report(
                    findings,
                    module,
                    line,
                    0,
                    f"checkpoint state of {cls.name} does not cover mutable "
                    f"attribute {attr!r} (assigned in __init__, mutated "
                    "elsewhere)",
                )
        if any_restore and restore_keys:
            restore_line = (
                cls.restore_lineno if cls.has_restore else cls.lineno
            )
            for key in sorted(state_keys):
                if key not in restore_keys:
                    self._report(
                        findings,
                        module,
                        restore_line,
                        0,
                        f"restore() of {cls.name} never reads state key "
                        f"{key!r}; the field round-trips to nowhere",
                    )


# ----------------------------------------------------------------------
# RL010 — digest/merge-order nondeterminism
# ----------------------------------------------------------------------

def _is_digest_sink(call: str) -> bool:
    return call.startswith("hashlib.") or call.endswith(".merge")


class DigestMergeOrderNondeterminism(CrossRule):
    """Hash-salted set iteration feeding digests, merges, or ordered output."""

    id = "RL010"
    name = "digest-merge-order-nondeterminism"
    rationale = (
        "Set iteration order is salted per process (PYTHONHASHSEED); "
        "inside a function that reaches hashlib/digest-chaining or a "
        "shard/parallel merge, or whenever the loop materializes an "
        "ordered structure, that order leaks into results and breaks "
        "worker-count invariance.  Order-free reductions (all/any/min/"
        "max/len/set/sorted) are exempt."
    )
    hint = (
        "iterate `sorted(the_set)` (or build the sequence with an ordered "
        "first-appearance dedup like dict.fromkeys) before the order can "
        "be observed"
    )
    #: Packages whose results feed digests, merges, or installed state.
    _scope = (
        "repro/stream/",
        "repro/obs/",
        "repro/network/",
        "repro/resilience/",
        "repro/core/",
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for module in sorted(index.modules.values(), key=lambda m: m.path):
            if not module.module.startswith(self._scope):
                continue
            for node_key, func in _function_nodes(module):
                if not func.set_iterations:
                    continue
                reaches_digest = index.reaches_sink(
                    node_key,
                    "rl010-digest",
                    _is_digest_sink,
                    lambda _module_key: False,
                )
                for line, col, kind, builds_ordered in func.set_iterations:
                    if reaches_digest:
                        reason = (
                            "inside a function on a digest/merge path "
                            f"(via {node_key.rsplit('.', 1)[1]}())"
                        )
                    elif builds_ordered:
                        reason = "the loop materializes an ordered output"
                    else:
                        continue
                    self._report(
                        findings,
                        module,
                        line,
                        col,
                        f"iteration over a set in salted hash order; {reason}",
                    )
        return findings


def _function_nodes(
    module: ModuleInfo,
) -> List[Tuple[str, FunctionInfo]]:
    """``(call-graph node key, FunctionInfo)`` for every function/method."""
    nodes: List[Tuple[str, FunctionInfo]] = [
        (f"{module.dotted}.{name}", info)
        for name, info in module.functions.items()
    ]
    for cls_name, cls in module.classes.items():
        for method_name, info in cls.methods.items():
            nodes.append(
                (f"{module.dotted}.{cls_name}.{method_name}", info)
            )
    return nodes


# ----------------------------------------------------------------------
# transitive RL001 / RL007 — call-graph extension of the per-file rules
# ----------------------------------------------------------------------

class TransitiveSinkReach(CrossRule):
    """A solver-side call reaches a guarded sink through helper hops.

    Reuses the per-file rule ids (RL001/RL007) so one pragma vocabulary
    covers both passes.  Only *cross-module* calls are flagged: a
    same-module helper is covered by the justification on its own
    suppressed sink, but a new caller from another module is not.
    """

    #: Modules whose functions are held to the transitive contract.
    _caller_scope = (
        "repro/core/",
        "repro/stream/",
        "repro/resilience/",
        "repro/simulation/",
    )

    def __init__(
        self,
        rule_id: str,
        name: str,
        rationale: str,
        hint: str,
        sink_label: str,
        direct_sink: Callable[[str], bool],
        exempt_module: Callable[[str], bool],
    ) -> None:
        self.id = rule_id
        self.name = name
        self.rationale = rationale
        self.hint = hint
        self._sink_label = sink_label
        self._direct_sink = direct_sink
        self._exempt_module = exempt_module

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for module in sorted(index.modules.values(), key=lambda m: m.path):
            if not module.module.startswith(self._caller_scope):
                continue
            if self._exempt_module(module.module):
                continue
            for _node_key, func in _function_nodes(module):
                self._check_function(index, module, func, findings)
        return findings

    def _check_function(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        func: FunctionInfo,
        findings: List[Finding],
    ) -> None:
        reported: Set[Tuple[str, int]] = set()
        for call, line in func.calls:
            if self._direct_sink(call):
                continue  # the per-file rule owns direct sink calls
            target = index.resolve_call(call)
            if target is None:
                continue
            target_module, _target_func = index.function_node(target)
            if target_module is None:
                continue
            if target_module.dotted == module.dotted:
                continue  # same-module reach is covered by the local pragma
            if not index.reaches_sink(
                target,
                f"{self.id}-transitive",
                self._direct_sink,
                self._exempt_module,
            ):
                continue
            if (target, line) in reported:
                continue
            reported.add((target, line))
            short = target.rsplit(".", 1)[1]
            self._report(
                findings,
                module,
                line,
                0,
                f"call to {short}() ({target}) transitively reaches "
                f"{self._sink_label}",
            )


#: Sanctioned algorithm layers whose *suppressed* raw searches are their
#: documented implementation (the reference ``G_k^i`` construction).  They
#: absorb RL001 transitivity: calling them is the architecture, so the
#: flag must not propagate to every solver that does.  A brand-new helper
#: wrapping ``dijkstra()`` is NOT on this list and does infect its callers.
_RL001_ABSORBING = ("repro/core/auxiliary.py",)


def _rl001_exempt(module_key: str) -> bool:
    return (
        module_key in UncachedShortestPath._allowed
        or module_key in _RL001_ABSORBING
    )


def _rl007_exempt(module_key: str) -> bool:
    return module_key.startswith("repro/obs/")


_TRANSITIVE_RL001 = TransitiveSinkReach(
    rule_id="RL001",
    name="uncached-shortest-path (transitive)",
    rationale=(
        "A helper that performs a raw shortest-path search infects every "
        "caller: flagging the solver-side call site keeps a suppressed "
        "one-shot search from silently growing new hot-path callers."
    ),
    hint=(
        "route the path query through the versioned cache at the caller, "
        "or suppress at the call site with a justification"
    ),
    sink_label="a raw shortest-path search (RL001 sink)",
    direct_sink=lambda call: call in _SP_QUALIFIED,
    exempt_module=_rl001_exempt,
)

_TRANSITIVE_RL007 = TransitiveSinkReach(
    rule_id="RL007",
    name="wall-clock-outside-obs (transitive)",
    rationale=(
        "A helper that reads the wall clock makes every solver-side "
        "caller time-dependent; the flag lands at the caller so decision "
        "paths cannot absorb clock reads through one level of indirection."
    ),
    hint=(
        "move the timing into a repro.obs span, or suppress at the call "
        "site if the value is a reported metric"
    ),
    sink_label="a wall-clock read (RL007 sink)",
    direct_sink=lambda call: call in _WALL_CLOCK,
    exempt_module=_rl007_exempt,
)


# ----------------------------------------------------------------------
# RL012 — API-surface lock
# ----------------------------------------------------------------------

#: Packages whose public surface is locked by ``api_baseline.json``.
API_LOCKED_PACKAGES = ("repro.core", "repro.graph", "repro.stream", "repro.obs")

#: Identifier and hint shared by the surface-diff findings.
_RL012_ID = "RL012"
_RL012_HINT = (
    "if the change is intentional, rebaseline with `repro lint "
    "--update-api`; otherwise restore the exported surface"
)


def _describe_export(index: ProjectIndex, dotted_name: str) -> Dict[str, Any]:
    """A stable JSON descriptor for one exported name."""
    _module, symbol = index.lookup_symbol(dotted_name)
    if isinstance(symbol, FunctionInfo):
        return {"kind": "function", "signature": symbol.signature}
    if isinstance(symbol, ClassInfo):
        init = symbol.methods.get("__init__")
        methods = {
            name: info.signature
            for name, info in sorted(symbol.methods.items())
            if not name.startswith("_")
        }
        return {
            "kind": "class",
            "init": init.signature if init is not None else "(self)",
            "methods": methods,
        }
    return {"kind": "object"}


def compute_api_surface(index: ProjectIndex) -> Dict[str, Any]:
    """The current surface of the locked packages, baseline-shaped."""
    packages: Dict[str, Any] = {}
    modules: Dict[str, List[str]] = {}
    for package in API_LOCKED_PACKAGES:
        init_module = index.by_dotted.get(package)
        if init_module is None:
            continue
        exports = init_module.exports or []
        packages[package] = {
            name: _describe_export(index, f"{package}.{name}")
            for name in sorted(exports)
        }
        prefix = package.replace(".", "/") + "/"
        for module in index.modules.values():
            if not module.module.startswith(prefix):
                continue
            if module.module.endswith("__init__.py"):
                continue
            modules[module.module] = sorted(module.public_defs)
    return {"version": 1, "packages": packages, "modules": modules}


def diff_api_surface(
    index: ProjectIndex,
    baseline: Dict[str, Any],
) -> List[Finding]:
    """RL012 findings: the indexed surface vs the committed baseline.

    Packages/modules absent from the *index* are skipped (a ``--changed``
    or fixture run must never produce spurious RL012 findings); packages/
    modules present in the index but absent from the *baseline* are
    compared against an empty surface, so new names force a rebaseline.
    """
    findings: List[Finding] = []
    current = compute_api_surface(index)
    base_packages = baseline.get("packages", {})
    base_modules = baseline.get("modules", {})

    def emit(module: ModuleInfo, message: str) -> None:
        if module.is_suppressed(_RL012_ID, 1):
            return
        findings.append(
            Finding(
                rule=_RL012_ID,
                path=module.path,
                line=1,
                col=0,
                message=message,
                hint=_RL012_HINT,
            )
        )

    for package, exports in sorted(current["packages"].items()):
        init_module = index.by_dotted[package]
        base_exports = base_packages.get(package, {})
        for name in sorted(set(exports) - set(base_exports)):
            emit(
                init_module,
                f"{package} newly exports {name!r} (not in the API baseline)",
            )
        for name in sorted(set(base_exports) - set(exports)):
            emit(
                init_module,
                f"{package} no longer exports {name!r} (locked by the API "
                "baseline)",
            )
        for name in sorted(set(exports) & set(base_exports)):
            if exports[name] != base_exports[name]:
                emit(
                    init_module,
                    f"signature of {package}.{name} changed from the API "
                    "baseline",
                )

    by_module_key = {info.module: info for info in index.modules.values()}
    for module_key, names in sorted(current["modules"].items()):
        module = by_module_key.get(module_key)
        if module is None:
            continue
        base_names = set(base_modules.get(module_key, []))
        for name in sorted(set(names) - base_names):
            emit(
                module,
                f"new public name {name!r} in {module_key} is not in the "
                "API baseline",
            )
        for name in sorted(base_names - set(names)):
            emit(
                module,
                f"public name {name!r} removed from {module_key} (locked "
                "by the API baseline)",
            )
    return findings


# ----------------------------------------------------------------------
# registry / entry point
# ----------------------------------------------------------------------

CROSS_RULES: Tuple[CrossRule, ...] = (
    CheckpointStateDrift(),
    DigestMergeOrderNondeterminism(),
    _TRANSITIVE_RL001,
    _TRANSITIVE_RL007,
)


def run_cross_rules(
    index: ProjectIndex,
    api_baseline: Optional[Dict[str, Any]] = None,
) -> List[Finding]:
    """Run every cross rule (plus RL012 when a baseline is supplied)."""
    findings: List[Finding] = []
    for rule in CROSS_RULES:
        findings.extend(rule.check(index))
    if api_baseline is not None:
        findings.extend(diff_api_surface(index, api_baseline))
    return findings
