"""Drive the rules over sources, files, and directory trees.

One pass per file (see ``docs/STATIC_ANALYSIS.md``):
:meth:`~repro.lint.project.ProjectIndex.build` parses each module once,
runs the per-file rules RL001–RL008/RL011 on it and extracts the
cross-file facts from the same tree, reusing both from the index cache
when the file is unchanged.  The cross-file rules (RL009, RL010, the
transitive RL001/RL007 and, given an API baseline, RL012) then run
against the whole index.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.lint.core import Finding
from repro.lint.project import ProjectIndex, build_module_info
from repro.lint.xrules import run_cross_rules


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Run the per-file rules on one source string as if it lived at ``path``.

    The path determines rule scoping (see
    :func:`repro.lint.core.module_key`), so fixtures can impersonate any
    module: ``lint_source(snippet, "src/repro/core/foo.py")``.  Files
    outside the ``repro`` package are parsed but not linted: tests,
    benchmarks and scripts deliberately break the library's invariants.

    Raises:
        SyntaxError: if the source does not parse (callers decide whether
            a syntax error is a lint failure; the CLI reports it as one).
    """
    info = build_module_info(path, source)
    if info is None:
        return []
    return sorted(info.findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            found.append(path)
    return sorted(dict.fromkeys(found))


def load_api_baseline(path: str) -> Dict[str, object]:
    """Load a committed ``api_baseline.json``.

    Raises:
        ValueError: if the payload is not a version-1 surface document.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("version") != 1:
        raise ValueError(
            f"{path} is not a version-1 API baseline; regenerate it with "
            "`repro lint --update-api`"
        )
    return payload


def lint_paths(
    paths: Iterable[str],
    *,
    index_cache: Optional[str] = None,
    api_baseline: Optional[str] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    A file that fails to parse contributes a single synthetic ``RL000``
    finding rather than aborting the run, so one broken file cannot hide
    violations elsewhere.  Of the files that parse, only those inside
    the ``repro`` package are linted.

    The per-file and cross-file rules all run; RL012 diffs the exported
    surface against ``api_baseline`` (a path) if and only if one is
    given.  ``index_cache`` names the cache file that lets unchanged
    files skip their pass.

    Raises:
        OSError: if a file cannot be read.
        ValueError: if ``api_baseline`` is not a version-1 surface document.
    """
    baseline = None if api_baseline is None else load_api_baseline(api_baseline)
    index = ProjectIndex.build(iter_python_files(paths), cache_path=index_cache)
    findings: List[Finding] = [
        finding for info in index.modules.values() for finding in info.findings
    ]
    for path, exc in index.broken.items():
        findings.append(
            Finding(
                rule="RL000",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error first",
            )
        )
    findings.extend(run_cross_rules(index, api_baseline=baseline))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
