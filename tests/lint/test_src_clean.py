"""The CI contract: the full ``src/`` tree is lint-clean, API lock included.

If this test fails you either introduced a genuine invariant violation
(fix it) or a justified exception (add an inline
``# repro-lint: disable=RLxxx`` with the reason — see
``docs/STATIC_ANALYSIS.md``).
"""

import os

from repro.lint import iter_python_files, lint_paths
from repro.lint.core import pragma_comments

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")
API_BASELINE = os.path.join(REPO_ROOT, "api_baseline.json")


def test_src_tree_is_lint_clean():
    # RL012 runs only against an explicit baseline, wherever pytest starts
    findings = lint_paths([SRC], api_baseline=API_BASELINE)
    rendered = "\n".join(finding.format() for finding in findings)
    assert findings == [], f"repro lint found violations in src/:\n{rendered}"


def test_suppression_census():
    """Pin the number of in-tree pragmas so new ones show up in review.

    Every suppression is a justified exception to an invariant; adding one
    should be a conscious act that edits this count alongside the pragma.
    Only pragmas the linter honours count: comments found by the same
    tokenize pass that builds each file's suppression map, so the syntax
    examples in the lint package's docstrings do not.
    """
    pragmas = 0
    for path in iter_python_files([SRC]):
        with open(path, encoding="utf-8") as handle:
            pragmas += len(pragma_comments(handle.read()))
    # Today: 17.  Eight RL001 line-level (metric_closure's one-shot
    # batched CSR search, resilience repair's targeted graft search, and
    # the reference/oracle searches in core/: exact, auxiliary,
    # baselines), one RL004 on appro_multi's bit-exact tie-break, three
    # RL007 line-level on analysis/report's
    # progress timer and report date, the three RL007 file-level ones in
    # the offline simulation drivers, obs/emitter (whose every_seconds
    # flush trigger is wall time by contract) and the stream scale
    # benchmark (which reports measured throughput as a result metric),
    # and from the cross-file pass one RL009 on SnapshotEmitter.state(),
    # whose flight-recorder ring and wall-clock anchor are deliberately
    # not checkpointed, and one RL010 on pseudo_tree's order-independent
    # reachability flood.
    assert pragmas <= 17, (
        f"{pragmas} suppression pragmas in src/ — if you added one with a "
        "written justification, raise this ceiling in the same commit"
    )


def test_the_walk_actually_covers_the_tree():
    files = iter_python_files([SRC])
    # guard against a silent "0 files linted == clean" regression
    assert len(files) > 50
    assert any(path.endswith("network/sdn.py") for path in files)
    assert any(path.endswith("lint/rules.py") for path in files)
