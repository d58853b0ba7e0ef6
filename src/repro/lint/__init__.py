"""``repro lint`` — the semantic analyzer for the reproduction.

The reproduction's correctness rests on cross-cutting conventions that no
single unit test can see: every shortest-path query goes through the
epoch-versioned :class:`~repro.graph.spcache.ShortestPathCache`, residual
capacity is only mutated by the resource layer under
:class:`~repro.network.allocation.AllocationTransaction` ownership, every
topology/capacity mutation bumps the network epoch, and every stochastic
component draws from an explicitly seeded RNG.  This package enforces those
conventions *statically*, at CI time, instead of waiting for a 50-instance
differential run to drift.

One cached pass per file, then the cross-file rules:

- :class:`ProjectIndex` (:mod:`repro.lint.project`) parses each module
  once, runs the per-file rules RL001–RL008 and RL011
  (:mod:`repro.lint.rules`) on it and extracts the cross-file facts from
  the same tree; an unchanged file reuses both from the on-disk cache;
- the cross-file rules then run against the whole index: the
  RL009/RL010 dataflow rules, the transitive RL001/RL007 call-graph
  extension and, given an API baseline, the RL012 API-surface lock
  (:mod:`repro.lint.xrules`).

Public surface:

- :func:`lint_paths` / :func:`lint_source` — run the rules.
- :data:`ALL_RULES` / :data:`CROSS_RULES` — the rule registries.
- :class:`Finding` — one violation: rule, path, line, message, hint.
- :class:`ProjectIndex` — the cached index (per-file findings, symbol
  tables, class attribute maps, call graph, export surface).
- :func:`compute_api_surface` / :func:`load_api_baseline` — the RL012
  surface snapshot (what ``--update-api`` writes) and the committed
  ``api_baseline.json`` it is diffed against.
- :mod:`repro.lint.cli` — the ``repro lint`` subcommand implementation.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the suppression
syntax (``# repro-lint: disable=RLxxx``).
"""

from repro.lint.core import Finding, LintContext, Rule
from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)
from repro.lint.rules import ALL_RULES
from repro.lint.runner import (
    iter_python_files,
    lint_paths,
    lint_source,
    load_api_baseline,
)
from repro.lint.xrules import (
    API_LOCKED_PACKAGES,
    CROSS_RULES,
    CrossRule,
    compute_api_surface,
    run_cross_rules,
)

__all__ = [
    "ALL_RULES",
    "API_LOCKED_PACKAGES",
    "CROSS_RULES",
    "ClassInfo",
    "CrossRule",
    "Finding",
    "FunctionInfo",
    "LintContext",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "compute_api_surface",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_api_baseline",
    "run_cross_rules",
]
