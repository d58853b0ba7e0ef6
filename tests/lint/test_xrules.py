"""Trip + pass fixture pairs for the cross-file rules (RL009–RL012).

Fixtures build an in-memory :class:`ProjectIndex` from source snippets
whose paths impersonate ``repro`` modules, mirroring the per-file
convention in ``test_rules.py``.
"""

import textwrap

from repro.lint.project import ProjectIndex
from repro.lint.xrules import (
    CROSS_RULES,
    ApiSurfaceLock,
    CheckpointStateDrift,
    DigestMergeOrderNondeterminism,
    compute_api_surface,
    run_cross_rules,
)


def make_index(mapping) -> ProjectIndex:
    return ProjectIndex.from_sources(
        {path: textwrap.dedent(source) for path, source in mapping.items()}
    )


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestRL009CheckpointStateDrift:
    RULE = CheckpointStateDrift()

    def check(self, mapping):
        return self.RULE.check(make_index(mapping))

    TRIP = {
        "src/repro/stream/gen.py": """
            class Gen:
                def __init__(self, seed):
                    self._produced = 0
                    self._label = str(seed)

                def step(self):
                    self._produced += 1

                def state(self):
                    return {"label": self._label}

                def restore(self, state):
                    self._label = state["label"]
        """
    }

    def test_missing_mutable_attribute_trips(self):
        findings = self.check(self.TRIP)
        assert rule_ids(findings) == ["RL009"]
        assert "_produced" in findings[0].message
        assert "Gen" in findings[0].message

    def test_covered_attribute_passes(self):
        clean = {
            "src/repro/stream/gen.py": """
                class Gen:
                    def __init__(self, seed):
                        self._produced = 0

                    def step(self):
                        self._produced += 1

                    def state(self):
                        return {"produced": self._produced}

                    def restore(self, state):
                        self._produced = state["produced"]
            """
        }
        assert self.check(clean) == []

    def test_prefix_insensitive_key_matching(self):
        # `timing_rng` serializes `_timing` — the workloads.py idiom
        clean = {
            "src/repro/stream/gen.py": """
                class Gen:
                    def __init__(self, seed):
                        self._timing = object()

                    def step(self):
                        self._timing = object()

                    def state(self):
                        return {"timing_rng": repr(self._timing)}

                    def restore(self, state):
                        self._timing = state["timing_rng"]
            """
        }
        assert self.check(clean) == []

    def test_inherited_state_covers_base_attrs(self):
        clean = {
            "src/repro/stream/base.py": """
                class Base:
                    def __init__(self):
                        self.produced = 0

                    def advance(self):
                        self.produced += 1

                    def state(self):
                        return {"produced": self.produced}

                    def restore(self, state):
                        self.produced = state["produced"]
            """,
            "src/repro/stream/gen.py": """
                from repro.stream.base import Base

                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.extra = 0

                    def advance(self):
                        self.extra += 1
            """,
        }
        findings = self.check(clean)
        # Child mutates `extra` but state() (inherited) never covers it
        assert rule_ids(findings) == ["RL009"]
        assert "extra" in findings[0].message

    def test_subclass_subscript_store_extends_state(self):
        clean = {
            "src/repro/stream/base.py": """
                class Base:
                    def __init__(self):
                        self.produced = 0

                    def advance(self):
                        self.produced += 1

                    def state(self):
                        return {"produced": self.produced}

                    def restore(self, state):
                        self.produced = state["produced"]
            """,
            "src/repro/stream/gen.py": """
                from repro.stream.base import Base

                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.extra = 0

                    def advance(self):
                        self.extra += 1

                    def state(self):
                        base = super().state()
                        base["extra"] = self.extra
                        return base

                    def restore(self, state):
                        super().restore(state)
                        self.extra = state["extra"]
            """,
        }
        assert self.check(clean) == []

    def test_missing_restore_key_trips(self):
        trip = {
            "src/repro/stream/gen.py": """
                class Gen:
                    def __init__(self):
                        self.n = 0

                    def advance(self):
                        self.n += 1

                    def state(self):
                        return {"n": self.n, "ghost": 1}

                    def restore(self, state):
                        self.n = state["n"]
            """
        }
        findings = self.check(trip)
        assert rule_ids(findings) == ["RL009"]
        assert "ghost" in findings[0].message

    def test_class_without_state_is_skipped(self):
        clean = {
            "src/repro/stream/gen.py": """
                class Plain:
                    def __init__(self):
                        self.n = 0

                    def advance(self):
                        self.n += 1
            """
        }
        assert self.check(clean) == []

    def test_outside_checkpoint_scope_is_skipped(self):
        outside = {
            "src/repro/graph/thing.py": self.TRIP[
                "src/repro/stream/gen.py"
            ]
        }
        assert self.check(outside) == []

    def test_pragma_above_state_suppresses(self):
        suppressed = {
            "src/repro/stream/gen.py": """
                class Gen:
                    def __init__(self, seed):
                        self._produced = 0
                        self._label = str(seed)

                    def step(self):
                        self._produced += 1

                    # repro-lint: disable=RL009 -- deliberately re-derived
                    def state(self):
                        return {"label": self._label}

                    def restore(self, state):
                        self._label = state["label"]
            """
        }
        assert self.check(suppressed) == []


class TestRL010DigestMergeOrder:
    RULE = DigestMergeOrderNondeterminism()

    def check(self, mapping):
        return self.RULE.check(make_index(mapping))

    def test_set_iteration_on_digest_path_trips(self):
        trip = {
            "src/repro/stream/shard.py": """
                import hashlib

                def merge(states):
                    digest = ""
                    for state in set(states):
                        digest = hashlib.sha256(
                            (digest + state).encode()
                        ).hexdigest()
                    return digest
            """
        }
        findings = self.check(trip)
        assert rule_ids(findings) == ["RL010"]
        assert "digest/merge path" in findings[0].message

    def test_transitive_digest_reach_trips(self):
        trip = {
            "src/repro/stream/hashing.py": """
                import hashlib

                def chain(digest, item):
                    return hashlib.sha256(
                        (digest + item).encode()
                    ).hexdigest()
            """,
            "src/repro/stream/shard.py": """
                from repro.stream.hashing import chain

                def merge(states):
                    digest = ""
                    for state in set(states):
                        digest = chain(digest, state)
                    return digest
            """,
        }
        findings = self.check(trip)
        assert [
            (finding.rule, finding.path) for finding in findings
        ] == [("RL010", "src/repro/stream/shard.py")]

    def test_sorted_iteration_passes(self):
        clean = {
            "src/repro/stream/shard.py": """
                import hashlib

                def merge(states):
                    digest = ""
                    for state in sorted(set(states)):
                        digest = hashlib.sha256(
                            (digest + state).encode()
                        ).hexdigest()
                    return digest
            """
        }
        assert self.check(clean) == []

    def test_ordered_output_outside_digest_path_trips(self):
        trip = {
            "src/repro/network/ctrl.py": """
                def rules_for(fanout, upstream):
                    rules = []
                    for switch in set(fanout) | set(upstream):
                        rules.append(switch)
                    return rules
            """
        }
        findings = self.check(trip)
        assert rule_ids(findings) == ["RL010"]
        assert "ordered output" in findings[0].message

    def test_order_free_reduction_passes(self):
        clean = {
            "src/repro/network/ctrl.py": """
                def can_install(switches, capacity, size):
                    return all(
                        size.get(switch, 0) < capacity
                        for switch in set(switches)
                    )
            """
        }
        assert self.check(clean) == []

    def test_membership_only_loop_passes(self):
        clean = {
            "src/repro/network/ctrl.py": """
                def count(switches, live):
                    total = 0
                    for switch in set(switches):
                        if switch in live:
                            total += 1
                    return total
            """
        }
        assert self.check(clean) == []

    def test_outside_scope_is_skipped(self):
        outside = {
            "src/repro/analysis/report.py": """
                def rows(items):
                    out = []
                    for item in set(items):
                        out.append(item)
                    return out
            """
        }
        assert self.check(outside) == []


class TestTransitiveRL001:
    def check(self, mapping):
        index = make_index(mapping)
        return [
            finding
            for finding in run_cross_rules(index)
            if finding.rule == "RL001"
        ]

    TRIP = {
        "src/repro/graph/helper.py": """
            from repro.graph.shortest_paths import dijkstra

            def probe(graph, source):
                # repro-lint: disable=RL001 -- one-shot reference search
                return dijkstra(graph, source)
        """,
        "src/repro/core/solver.py": """
            from repro.graph.helper import probe

            def solve(graph, source):
                return probe(graph, source)
        """,
    }

    def test_helper_reaching_dijkstra_flags_the_caller(self):
        findings = self.check(self.TRIP)
        assert [
            (finding.rule, finding.path, finding.line)
            for finding in findings
        ] == [("RL001", "src/repro/core/solver.py", 5)]
        assert "probe" in findings[0].message

    def test_suppressed_sink_still_infects_new_callers(self):
        # the pragma in helper.py shields *its* line, not new callers —
        # exactly the drift the transitive pass exists to catch
        assert self.check(self.TRIP) != []

    def test_same_module_call_is_not_flagged(self):
        same = {
            "src/repro/core/solver.py": """
                from repro.graph.shortest_paths import dijkstra

                def probe(graph, source):
                    # repro-lint: disable=RL001 -- reference oracle
                    return dijkstra(graph, source)

                def solve(graph, source):
                    return probe(graph, source)
            """
        }
        assert self.check(same) == []

    def test_absorbing_layer_does_not_infect(self):
        clean = {
            "src/repro/core/auxiliary.py": """
                from repro.graph.shortest_paths import dijkstra

                def build_context(graph, source):
                    # repro-lint: disable=RL001 -- sanctioned layer
                    return dijkstra(graph, source)
            """,
            "src/repro/core/solver.py": """
                from repro.core.auxiliary import build_context

                def solve(graph, source):
                    return build_context(graph, source)
            """,
        }
        assert self.check(clean) == []

    def test_call_site_pragma_suppresses(self):
        suppressed = {
            "src/repro/graph/helper.py": self.TRIP[
                "src/repro/graph/helper.py"
            ],
            "src/repro/core/solver.py": """
                from repro.graph.helper import probe

                def solve(graph, source):
                    # repro-lint: disable=RL001 -- cold path, justified
                    return probe(graph, source)
            """,
        }
        assert self.check(suppressed) == []


class TestTransitiveRL007:
    def check(self, mapping):
        index = make_index(mapping)
        return [
            finding
            for finding in run_cross_rules(index)
            if finding.rule == "RL007"
        ]

    def test_helper_reading_clock_flags_stream_caller(self):
        trip = {
            "src/repro/analysis/timing.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "src/repro/stream/engine.py": """
                from repro.analysis.timing import stamp

                def decide():
                    return stamp()
            """,
        }
        findings = self.check(trip)
        assert [
            (finding.rule, finding.path) for finding in findings
        ] == [("RL007", "src/repro/stream/engine.py")]

    def test_obs_layer_absorbs(self):
        clean = {
            "src/repro/obs/registry.py": """
                import time

                def now():
                    return time.time()
            """,
            "src/repro/stream/engine.py": """
                from repro.obs.registry import now

                def decide():
                    return now()
            """,
        }
        assert self.check(clean) == []


class TestRL012ApiSurfaceLock:
    RULE = ApiSurfaceLock()

    SOURCES = {
        "src/repro/stream/__init__.py": """
            from repro.stream.engine import StreamEngine, run_stream
            __all__ = ["StreamEngine", "run_stream"]
        """,
        "src/repro/stream/engine.py": """
            class StreamEngine:
                def __init__(self, network, seed: int = 0):
                    self.network = network

                def step(self, request):
                    pass

                def _internal(self):
                    pass

            def run_stream(config, *, limit=None):
                pass
        """,
    }

    def surface(self, mapping=None):
        return compute_api_surface(make_index(mapping or self.SOURCES))

    def test_surface_shape(self):
        surface = self.surface()
        exports = surface["packages"]["repro.stream"]
        assert exports["run_stream"] == {
            "kind": "function",
            "signature": "(config, *, limit=None)",
        }
        engine = exports["StreamEngine"]
        assert engine["kind"] == "class"
        assert engine["init"] == "(self, network, seed: int = 0)"
        assert list(engine["methods"]) == ["step"]
        assert surface["modules"]["repro/stream/engine.py"] == [
            "StreamEngine",
            "run_stream",
        ]

    def test_unchanged_surface_is_clean(self):
        index = make_index(self.SOURCES)
        assert self.RULE.check(index, compute_api_surface(index)) == []

    def test_new_unexported_public_function_trips(self):
        changed = dict(self.SOURCES)
        changed["src/repro/stream/engine.py"] += (
            "\n            def sneaky_new_api():\n                pass\n"
        )
        baseline = self.surface()
        findings = self.RULE.check(make_index(changed), baseline)
        assert rule_ids(findings) == ["RL012"]
        assert "sneaky_new_api" in findings[0].message

    def test_removed_export_trips(self):
        changed = dict(self.SOURCES)
        changed["src/repro/stream/__init__.py"] = """
            from repro.stream.engine import StreamEngine
            __all__ = ["StreamEngine"]
        """
        findings = self.RULE.check(make_index(changed), self.surface())
        assert rule_ids(findings) == ["RL012"]
        assert "run_stream" in findings[0].message

    def test_signature_change_trips(self):
        changed = dict(self.SOURCES)
        changed["src/repro/stream/engine.py"] = self.SOURCES[
            "src/repro/stream/engine.py"
        ].replace("def run_stream(config, *, limit=None):",
                  "def run_stream(config, limit=None, extra=0):")
        findings = self.RULE.check(make_index(changed), self.surface())
        assert rule_ids(findings) == ["RL012"]
        assert "run_stream" in findings[0].message

    def test_partial_index_skips_absent_packages(self):
        # a fixture slice without repro.obs etc. must not produce
        # spurious RL012 findings for the missing packages
        baseline = self.surface()
        baseline["packages"]["repro.obs"] = {"Window": {"kind": "class"}}
        baseline["modules"]["repro/obs/window.py"] = ["Window"]
        index = make_index(self.SOURCES)
        assert self.RULE.check(index, baseline) == []

    def test_runs_with_the_cross_rules_only_given_a_baseline(self):
        changed = dict(self.SOURCES)
        changed["src/repro/stream/engine.py"] += (
            "\n            def sneaky_new_api():\n                pass\n"
        )
        index = make_index(changed)
        assert "RL012" not in rule_ids(run_cross_rules(index))
        findings = run_cross_rules(index, api_baseline=self.surface())
        assert rule_ids(findings) == ["RL012"]


class TestCrossRuleFramework:
    def test_every_cross_rule_has_metadata(self):
        seen = set()
        for rule in CROSS_RULES:
            assert rule.id.startswith("RL") and len(rule.id) == 5
            assert rule.name and rule.rationale and rule.hint
            seen.add((rule.id, rule.name))
        assert len(seen) == len(CROSS_RULES)
        assert "RL012" in {rule.id for rule in CROSS_RULES}
