"""The ``repro lint`` subcommand (also ``python -m repro.lint``).

Exit codes: 0 clean, 1 findings, 2 usage error (including a path that
cannot be read).  ``--format json`` emits a machine-readable report for
editors and the CI annotation step.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint.project import ProjectIndex
from repro.lint.rules import ALL_RULES
from repro.lint.runner import iter_python_files, lint_paths
from repro.lint.xrules import CROSS_RULES, compute_api_surface

#: Where ``--update-api`` writes when no ``--api-baseline`` is given.
DEFAULT_API_BASELINE = "api_baseline.json"


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure the lint argument parser (reused by the repro CLI)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="AST-based invariant linter for the repro package.",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--api-baseline",
        metavar="PATH",
        default=None,
        help="API-surface baseline to diff against; RL012 runs if and "
        "only if this is given",
    )
    parser.add_argument(
        "--update-api",
        action="store_true",
        help="rewrite the API baseline (--api-baseline, default "
        f"{DEFAULT_API_BASELINE}) from the current exported surface and "
        "exit 0 (an intentional surface change)",
    )
    parser.add_argument(
        "--index-cache",
        metavar="PATH",
        default=".repro_lint_cache.json",
        help="project-index cache file (default: .repro_lint_cache.json)",
    )
    parser.add_argument(
        "--no-index-cache",
        action="store_true",
        help="analyze every file from scratch, touching no cache",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        catalogue = list(ALL_RULES) + [
            rule for rule in CROSS_RULES if rule.id not in
            {r.id for r in ALL_RULES}
        ]
        if args.output_format == "json":
            print(json.dumps(
                [
                    {
                        "id": rule.id,
                        "name": rule.name,
                        "rationale": rule.rationale,
                        "hint": rule.hint,
                    }
                    for rule in catalogue
                ],
                indent=2,
            ))
        else:
            for rule in catalogue:
                print(f"{rule.id} {rule.name}")
                print(f"    {rule.rationale}")
            print(
                "note: RL001/RL007 also run transitively over the project "
                "call graph (flagged at the solver-side call site)"
            )
        return 0

    index_cache = None if args.no_index_cache else args.index_cache

    if args.update_api:
        target = args.api_baseline or DEFAULT_API_BASELINE
        try:
            index = ProjectIndex.build(
                iter_python_files(args.paths), cache_path=index_cache
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        surface = compute_api_surface(index)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(surface, handle, indent=2, sort_keys=True)
            handle.write("\n")
        exported = sum(len(v) for v in surface["packages"].values())
        print(
            f"wrote {target}: {len(surface['packages'])} packages, "
            f"{exported} exports, {len(surface['modules'])} modules"
        )
        return 0

    if args.api_baseline is not None and not os.path.exists(args.api_baseline):
        print(
            f"error: API baseline {args.api_baseline} does not exist; "
            "create it with `repro lint --update-api`",
            file=sys.stderr,
        )
        return 2

    try:
        findings = lint_paths(
            args.paths,
            index_cache=index_cache,
            api_baseline=args.api_baseline,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        print(json.dumps(
            {"findings": [finding.to_dict() for finding in findings]},
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {noun}")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
