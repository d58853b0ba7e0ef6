"""One cached pass per file: per-file findings travel with the index facts.

A tmp tree holds one per-file finding (RL003), one suppressed finding,
cross-file findings (RL009, and RL012 against a stale API baseline) and
one file that does not parse.  A cold run and warm runs must report the
same findings, and the cache must be reused only when the linter, the
interpreter and the file's content all match.
"""

import json
import os
import textwrap

import pytest

from repro.lint import ProjectIndex, iter_python_files, lint_paths

SOURCES = {
    "workload/draws.py": """
        import random

        def jitter():
            return random.random()

        def seeded_upstream():
            return random.random()  # repro-lint: disable=RL003
    """,
    "stream/gen.py": """
        class Gen:
            def __init__(self):
                self._produced = 0

            def step(self):
                self._produced += 1

            def state(self):
                return {}

            def restore(self, state):
                pass
    """,
    "stream/__init__.py": """
        from repro.stream.gen import Gen
        __all__ = ["Gen"]
    """,
    "core/broken.py": "def f(:\n",
}
#: A stale baseline that predates ``Gen``: two RL012 findings.
STALE_API = {"version": 1, "packages": {"repro.stream": {}}, "modules": {}}


@pytest.fixture
def tree(tmp_path):
    """``(src, api_baseline, cache)`` paths of the fixture tree."""
    src = tmp_path / "src"
    for name, body in SOURCES.items():
        path = src / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    api = tmp_path / "api_baseline.json"
    api.write_text(json.dumps(STALE_API))
    return str(src), str(api), str(tmp_path / "cache.json")


def build(src, cache):
    return ProjectIndex.build(iter_python_files([src]), cache_path=cache)


def test_cold_and_warm_runs_report_identical_findings(tree):
    src, api, cache = tree
    cold = lint_paths([src], api_baseline=api)
    writing = lint_paths([src], index_cache=cache, api_baseline=api)
    warm = lint_paths([src], index_cache=cache, api_baseline=api)
    assert cold == writing == warm
    assert [(f.rule, os.path.basename(f.path), f.line) for f in warm] == [
        ("RL000", "broken.py", 1),
        ("RL012", "__init__.py", 1),
        ("RL012", "gen.py", 1),
        ("RL009", "gen.py", 9),
        ("RL003", "draws.py", 5),
    ]
    # the warm run really came from the cache
    index = build(src, cache)
    assert (index.cache_hits, index.cache_misses) == (3, 0)


def test_editing_one_file_reparses_only_that_file(tree):
    src, api, cache = tree
    lint_paths([src], index_cache=cache, api_baseline=api)
    draws = os.path.join(src, "repro", "workload", "draws.py")
    with open(draws, "a", encoding="utf-8") as handle:
        handle.write("\ndef more():\n    return random.random()\n")
    index = build(src, cache)
    assert (index.cache_hits, index.cache_misses) == (2, 1)
    # the edited file's new finding is reported next to the cached ones
    findings = lint_paths([src], index_cache=cache, api_baseline=api)
    assert [f.line for f in findings if f.rule == "RL003"] == [5, 11]


def test_new_file_is_analyzed_on_a_warm_cache(tree):
    src, _api, cache = tree
    build(src, cache)
    fresh = os.path.join(src, "repro", "workload", "fresh.py")
    with open(fresh, "w", encoding="utf-8") as handle:
        handle.write("import random\n\ndef f():\n    return random.random()\n")
    index = build(src, cache)
    assert (index.cache_hits, index.cache_misses) == (3, 1)
    findings = lint_paths([src], index_cache=cache)
    assert fresh in {f.path for f in findings if f.rule == "RL003"}


def test_unchanged_run_does_not_rewrite_the_cache(tree):
    src, _api, cache = tree
    build(src, cache)
    with open(cache, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["marker"] = "untouched"
    with open(cache, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert build(src, cache).cache_misses == 0
    with open(cache, encoding="utf-8") as handle:
        assert json.load(handle)["marker"] == "untouched"


@pytest.mark.parametrize("whole_entry", [False, True])
def test_malformed_entry_is_reparsed(tree, whole_entry):
    src, _api, cache = tree
    build(src, cache)
    with open(cache, encoding="utf-8") as handle:
        payload = json.load(handle)
    (gen,) = [path for path in payload["modules"] if path.endswith("gen.py")]
    # valid JSON under a valid header, but the wrong shape
    if whole_entry:
        payload["modules"][gen] = []
    else:
        payload["modules"][gen]["classes"] = []
    with open(cache, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    index = build(src, cache)
    assert (index.cache_hits, index.cache_misses) == (2, 1)
    assert "Gen" in index.by_dotted["repro.stream.gen"].classes


@pytest.mark.parametrize("field", ["linter", "python"])
def test_cache_from_another_linter_or_python_is_discarded(tree, field):
    src, _api, cache = tree
    build(src, cache)
    with open(cache, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload[field] = "something else"
    with open(cache, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    index = build(src, cache)
    assert (index.cache_hits, index.cache_misses) == (0, 3)
    # and the rewritten cache serves the next run again
    assert build(src, cache).cache_hits == 3
