"""The CI contract: the full ``src/`` tree is lint-clean, no baseline.

If this test fails you either introduced a genuine invariant violation
(fix it) or a justified exception (add an inline
``# repro-lint: disable=RLxxx`` with the reason — see
``docs/STATIC_ANALYSIS.md``).  Growing a baseline is a last resort.
"""

import os

from repro.lint import iter_python_files, lint_paths

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")


def test_src_tree_is_lint_clean():
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.format() for finding in findings)
    assert findings == [], f"repro lint found violations in src/:\n{rendered}"


def test_suppression_census():
    """Pin the number of in-tree pragmas so new ones show up in review.

    Every suppression is a justified exception to an invariant; adding one
    should be a conscious act that edits this count alongside the pragma.
    """
    pragmas = 0
    for path in iter_python_files([SRC]):
        with open(path, encoding="utf-8") as handle:
            pragmas += handle.read().count("repro-lint: disable")
    # Today: 29 working pragmas (RL001/RL004 line-level — including the
    # RL001 one on metric_closure's one-shot batched CSR search, the
    # RL001/RL004 ones on the CSR/appro benchmarks' raw-engine sweeps and
    # bit-identity checks, and the five RL001 ones on the reference/oracle
    # constructions in core/ that the widened rule now polices
    # (exact, baselines, delay_aware) — plus the four RL007 file-level ones
    # in the simulation engine/trace, obs/emitter (whose every_seconds
    # flush trigger is wall time by contract), and the stream scale
    # benchmark, which reports measured throughput as a result metric;
    # the cross-file pass adds one RL009 on SnapshotEmitter.state(), whose
    # flight-recorder ring and wall-clock anchor are deliberately not
    # checkpointed, and one RL010 on pseudo_tree's order-independent
    # reachability flood) and 6 syntax examples inside the lint package's
    # own docstrings.
    assert pragmas <= 35, (
        f"{pragmas} suppression pragmas in src/ — if you added one with a "
        "written justification, raise this ceiling in the same commit"
    )


def test_the_walk_actually_covers_the_tree():
    files = iter_python_files([SRC])
    # guard against a silent "0 files linted == clean" regression
    assert len(files) > 50
    assert any(path.endswith("network/sdn.py") for path in files)
    assert any(path.endswith("lint/rules.py") for path in files)
