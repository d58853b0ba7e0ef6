"""Per-rule fixtures: one snippet that trips each rule, one that passes.

Every fixture impersonates a module via its path (rule scoping keys on the
``repro/...`` suffix — see :func:`repro.lint.core.module_key`), so these
tests pin both the detection logic *and* the allowlists.
"""

import textwrap

import pytest

from repro.lint import ALL_RULES, lint_source


def lint(source: str, path: str):
    return lint_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestRL001UncachedShortestPath:
    TRIP = """
        from repro.graph.shortest_paths import dijkstra

        def solve(graph, source):
            return dijkstra(graph, source)
    """

    def test_trips_outside_cache_module(self):
        findings = lint(self.TRIP, "src/repro/core/foo.py")
        assert rule_ids(findings) == ["RL001"]
        assert "dijkstra" in findings[0].message
        assert findings[0].line == 5

    def test_passes_inside_spcache(self):
        assert lint(self.TRIP, "src/repro/graph/spcache.py") == []

    def test_passes_inside_shortest_paths(self):
        assert lint(self.TRIP, "src/repro/graph/shortest_paths.py") == []

    def test_cache_usage_passes(self):
        clean = """
            def solve(network, source):
                return network.path_cache().tree(source)
        """
        assert lint(clean, "src/repro/core/foo.py") == []

    def test_reexport_and_module_attribute_forms_trip(self):
        via_reexport = """
            from repro.graph import shortest_path

            def hops(graph, a, b):
                return shortest_path(graph, a, b)
        """
        assert rule_ids(lint(via_reexport, "src/repro/core/foo.py")) == ["RL001"]
        via_module = """
            import repro.graph.shortest_paths as sp

            def tree(graph, origin):
                return sp.dijkstra(graph, origin)
        """
        assert rule_ids(lint(via_module, "src/repro/core/foo.py")) == ["RL001"]

    def test_local_function_named_dijkstra_passes(self):
        clean = """
            def dijkstra(graph, source):
                return None

            def run(graph, source):
                return dijkstra(graph, source)
        """
        assert lint(clean, "src/repro/core/foo.py") == []

    CSR_TRIP = """
        from repro.graph.csr import dijkstra_csr

        def solve(csr, source):
            return dijkstra_csr(csr, source)
    """

    def test_raw_csr_search_trips_outside_graph_modules(self):
        findings = lint(self.CSR_TRIP, "src/repro/core/foo.py")
        assert rule_ids(findings) == ["RL001"]
        assert "dijkstra_csr" in findings[0].message

    def test_batched_csr_search_trips_via_package_reexport(self):
        via_reexport = """
            from repro.graph import dijkstra_many

            def sweep(csr, sources):
                return dijkstra_many(csr, sources)
        """
        assert rule_ids(lint(via_reexport, "src/repro/core/foo.py")) == ["RL001"]

    def test_csr_search_passes_inside_csr_and_spcache_modules(self):
        assert lint(self.CSR_TRIP, "src/repro/graph/csr.py") == []
        assert lint(self.CSR_TRIP, "src/repro/graph/spcache.py") == []

    ROWS_TRIP = """
        from repro.graph.csr import dijkstra_rows

        def rows(csr, source):
            return dijkstra_rows(csr, source)
    """

    def test_row_search_trips_outside_graph_modules(self):
        findings = lint(self.ROWS_TRIP, "src/repro/core/foo.py")
        assert rule_ids(findings) == ["RL001"]
        assert "dijkstra_rows" in findings[0].message
        via_reexport = """
            from repro.graph import dijkstra_rows

            def rows(csr, source):
                return dijkstra_rows(csr, source)
        """
        assert rule_ids(lint(via_reexport, "src/repro/core/foo.py")) == ["RL001"]

    def test_row_search_passes_inside_csr_and_spcache_modules(self):
        assert lint(self.ROWS_TRIP, "src/repro/graph/csr.py") == []
        assert lint(self.ROWS_TRIP, "src/repro/graph/spcache.py") == []

    def test_cached_rows_pass(self):
        clean = """
            def rows(cache, source):
                return cache.flat_tree(source)
        """
        assert lint(clean, "src/repro/core/foo.py") == []

    COMPILE_TRIP = """
        from repro.graph.csr import compile_csr

        def evaluate(ctx, combination):
            return compile_csr(ctx.scaled)
    """

    def test_per_combination_compile_trips_inside_core(self):
        findings = lint(self.COMPILE_TRIP, "src/repro/core/fast.py")
        assert rule_ids(findings) == ["RL001"]
        assert "compile_csr" in findings[0].message
        # the message names the sanctioned one-compilation-per-request API
        assert "compiled()" in findings[0].message

    def test_compile_passes_inside_graph_layer_and_outside_core(self):
        assert lint(self.COMPILE_TRIP, "src/repro/graph/spcache.py") == []
        assert lint(self.COMPILE_TRIP, "src/repro/analysis/report.py") == []


class TestRL002ResidualWrite:
    TRIP = """
        def hack(link):
            link.residual -= 5.0
    """

    def test_trips_outside_resource_layer(self):
        findings = lint(self.TRIP, "src/repro/core/greedy.py")
        assert rule_ids(findings) == ["RL002"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/network/allocation.py",
            "src/repro/network/elements.py",
            "src/repro/network/sdn.py",
        ],
    )
    def test_passes_inside_resource_layer(self, path):
        # sdn.py additionally answers to RL005 (epoch bump) — only assert
        # that the *ownership* rule stays quiet inside the resource layer.
        assert "RL002" not in rule_ids(lint(self.TRIP, path))

    def test_plain_assign_and_tuple_unpack_trip(self):
        snippet = """
            def hack(link, server):
                link.residual, server.residual = 0.0, 0.0
        """
        assert rule_ids(lint(snippet, "src/repro/analysis/x.py")) == ["RL002", "RL002"]

    def test_read_passes(self):
        clean = """
            def headroom(link):
                return link.residual
        """
        assert lint(clean, "src/repro/core/greedy.py") == []


class TestRL003UnseededRandomness:
    def test_global_random_trips(self):
        snippet = """
            import random

            def jitter():
                return random.random() + random.uniform(0, 1)
        """
        assert rule_ids(lint(snippet, "src/repro/workload/x.py")) == [
            "RL003", "RL003",
        ]

    def test_from_import_trips(self):
        snippet = """
            from random import randint

            def pick():
                return randint(0, 10)
        """
        assert rule_ids(lint(snippet, "src/repro/workload/x.py")) == ["RL003"]

    def test_seeded_rng_passes(self):
        clean = """
            import random

            def sample(seed):
                rng = random.Random(seed)
                return rng.random()
        """
        assert lint(clean, "src/repro/workload/x.py") == []

    def test_stream_generator_unseeded_draw_trips(self):
        # An arrival stream drawing gaps from the hidden global RNG would
        # make checkpoint/resume non-reproducible — the rule polices
        # repro/stream like any other package.
        snippet = """
            import random

            class JitteredStream:
                def _draw(self):
                    gap = random.expovariate(2.0)
                    keep = random.random() < 0.5
                    return gap if keep else None
        """
        assert rule_ids(lint(snippet, "src/repro/stream/workloads.py")) == [
            "RL003", "RL003",
        ]

    def test_stream_generator_seeded_instance_rng_passes(self):
        # The idiom the stream package actually uses: one explicitly
        # seeded random.Random held in an attribute, serialized via
        # getstate()/setstate() for checkpoints.
        clean = """
            import random

            class Stream:
                def __init__(self, seed):
                    self._timing = random.Random(seed)

                def _draw(self):
                    return self._timing.expovariate(2.0)

                def state(self):
                    return self._timing.getstate()
        """
        assert lint(clean, "src/repro/stream/workloads.py") == []


class TestRL004FloatEquality:
    def test_computed_cost_equality_trips(self):
        snippet = """
            def tie(a, b):
                return a.cost == b.cost
        """
        assert rule_ids(lint(snippet, "src/repro/core/x.py")) == ["RL004"]

    def test_not_equal_on_weight_trips(self):
        snippet = """
            def moved(w_old, new_weight):
                return w_old != new_weight
        """
        assert rule_ids(lint(snippet, "src/repro/graph/x.py")) == ["RL004"]

    def test_non_sentinel_literal_trips(self):
        snippet = """
            def check(cost):
                return cost == 0.3
        """
        assert rule_ids(lint(snippet, "src/repro/core/x.py")) == ["RL004"]

    def test_sentinel_and_tolerance_pass(self):
        clean = """
            INFINITY = float("inf")

            def ok(cost, factor, best_cost):
                exact_scale = factor == 1.0
                empty = cost == 0.0
                unreachable = best_cost == INFINITY
                close = abs(cost - best_cost) <= 1e-9
                return exact_scale or empty or unreachable or close
        """
        assert lint(clean, "src/repro/core/x.py") == []

    def test_ordering_comparisons_pass(self):
        clean = """
            def better(cost, best_cost):
                return cost < best_cost
        """
        assert lint(clean, "src/repro/core/x.py") == []


class TestRL005EpochBump:
    TRIP = """
        class SDNetwork:
            def silently_allocate(self, u, v, amount):
                self.link(u, v).allocate(amount)
    """
    PASS = """
        class SDNetwork:
            def allocate_bandwidth(self, u, v, amount):
                self.link(u, v).allocate(amount)
                self._epoch += 1
    """

    def test_mutation_without_bump_trips(self):
        findings = lint(self.TRIP, "src/repro/network/sdn.py")
        assert rule_ids(findings) == ["RL005"]
        assert "silently_allocate" in findings[0].message

    def test_mutation_with_bump_passes(self):
        assert lint(self.PASS, "src/repro/network/sdn.py") == []

    def test_direct_attribute_mutation_trips(self):
        snippet = """
            class SDNetwork:
                def break_link(self, u, v):
                    self.link(u, v).up = False
        """
        assert rule_ids(lint(snippet, "src/repro/network/sdn.py")) == ["RL005"]

    def test_rule_is_scoped_to_sdn_module(self):
        assert lint(self.TRIP, "src/repro/network/elements.py") == []


class TestRL006SpanOutsideWith:
    def test_bare_span_call_trips(self):
        snippet = """
            from repro.obs import span as _obs_span

            def solve():
                _obs_span("phase")
                return 1
        """
        assert rule_ids(lint(snippet, "src/repro/core/x.py")) == ["RL006"]

    def test_with_span_passes(self):
        clean = """
            from repro.obs import span as _obs_span

            def solve():
                with _obs_span("phase"):
                    return 1
        """
        assert lint(clean, "src/repro/core/x.py") == []

    def test_obs_module_is_exempt(self):
        snippet = """
            from repro.obs import span

            def reenter():
                span("phase")
        """
        assert lint(snippet, "src/repro/obs/registry.py") == []


class TestRL007WallClock:
    def test_perf_counter_trips(self):
        snippet = """
            import time

            def solve():
                started = time.perf_counter()
                return started
        """
        assert rule_ids(lint(snippet, "src/repro/core/x.py")) == ["RL007"]

    def test_from_import_and_datetime_trip(self):
        snippet = """
            import datetime
            from time import monotonic

            def stamp():
                return monotonic(), datetime.datetime.now()
        """
        assert rule_ids(lint(snippet, "src/repro/analysis/x.py")) == [
            "RL007", "RL007",
        ]

    def test_obs_layer_passes(self):
        snippet = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert lint(snippet, "src/repro/obs/registry.py") == []

    def test_obs_window_module_trips(self):
        # windowed aggregates must be pure functions of the event stream:
        # the obs-package exemption does NOT extend to obs/window.py
        snippet = """
            import time

            def observe_now():
                return time.monotonic()
        """
        assert rule_ids(lint(snippet, "src/repro/obs/window.py")) == ["RL007"]

    def test_obs_emitter_module_trips_without_pragma(self):
        snippet = """
            import time

            def due():
                return time.monotonic()
        """
        assert rule_ids(lint(snippet, "src/repro/obs/emitter.py")) == ["RL007"]

    def test_obs_emitter_file_pragma_suppresses(self):
        # the real emitter carries exactly this justified file-level pragma
        snippet = """
            # repro-lint: disable-file=RL007 -- flush timer is wall time
            import time

            def due():
                return time.monotonic()
        """
        assert lint(snippet, "src/repro/obs/emitter.py") == []

    def test_sleep_passes(self):
        clean = """
            import time

            def backoff():
                time.sleep(0.01)
        """
        assert lint(clean, "src/repro/core/x.py") == []


class TestRL008BroadExcept:
    def test_bare_except_trips(self):
        snippet = """
            def run(solver):
                try:
                    return solver()
                except:
                    return None
        """
        assert rule_ids(lint(snippet, "src/repro/simulation/x.py")) == ["RL008"]

    def test_except_exception_trips(self):
        snippet = """
            def run(solver):
                try:
                    return solver()
                except Exception:
                    return None
        """
        assert rule_ids(lint(snippet, "src/repro/core/x.py")) == ["RL008"]

    def test_tuple_with_base_exception_trips(self):
        snippet = """
            def run(solver):
                try:
                    return solver()
                except (ValueError, BaseException):
                    return None
        """
        assert rule_ids(lint(snippet, "src/repro/resilience/x.py")) == ["RL008"]

    def test_specific_exception_passes(self):
        clean = """
            from repro.exceptions import InfeasibleRequestError

            def run(solver):
                try:
                    return solver()
                except InfeasibleRequestError:
                    return None
        """
        assert lint(clean, "src/repro/simulation/x.py") == []

    def test_rule_is_scoped_to_solver_paths(self):
        snippet = """
            def tolerate(action):
                try:
                    action()
                except Exception:
                    pass
        """
        assert lint(snippet, "src/repro/analysis/x.py") == []


class TestRL011TransactionWithoutExitPath:
    TRIP = """
        from repro.network.allocation import AllocationTransaction

        def reserve(network, edges, bw):
            txn = AllocationTransaction(network)
            for u, v in edges:
                txn.allocate_bandwidth(u, v, bw)
            txn.commit()
            return txn
    """

    def test_manual_pattern_trips(self):
        findings = lint(self.TRIP, "src/repro/core/foo.py")
        assert rule_ids(findings) == ["RL011"]
        assert "leaks the reservation" in findings[0].message

    def test_with_form_passes(self):
        clean = """
            from repro.network.allocation import AllocationTransaction

            def reserve(network, edges, bw):
                with AllocationTransaction(network) as txn:
                    for u, v in edges:
                        txn.allocate_bandwidth(u, v, bw)
                    txn.commit()
                return txn
        """
        assert lint(clean, "src/repro/core/foo.py") == []

    def test_try_finally_form_passes(self):
        clean = """
            from repro.network.allocation import AllocationTransaction

            def reserve(network, edges, bw):
                done = False
                txn = AllocationTransaction(network)
                try:
                    for u, v in edges:
                        txn.allocate_bandwidth(u, v, bw)
                    txn.commit()
                    done = True
                finally:
                    if not done:
                        txn.rollback()
                return txn
        """
        assert lint(clean, "src/repro/core/foo.py") == []

    def test_reexport_form_trips(self):
        via_reexport = """
            from repro.network import AllocationTransaction

            def reserve(network):
                txn = AllocationTransaction(network)
                txn.commit()
                return txn
        """
        assert rule_ids(
            lint(via_reexport, "src/repro/resilience/foo.py")
        ) == ["RL011"]

    def test_adopt_is_exempt(self):
        clean = """
            from repro.network.allocation import AllocationTransaction

            def transfer(network, ops):
                return AllocationTransaction.adopt(network, bandwidth_ops=ops)
        """
        assert lint(clean, "src/repro/resilience/foo.py") == []

    def test_allocation_module_itself_is_exempt(self):
        assert lint(self.TRIP, "src/repro/network/allocation.py") == []


class TestFrameworkBasics:
    def test_every_rule_has_metadata(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.id.startswith("RL") and len(rule.id) == 5
            assert rule.id not in seen
            seen.add(rule.id)
            assert rule.name
            assert rule.rationale
            assert rule.node_types

    def test_files_outside_repro_are_skipped(self):
        snippet = """
            import random

            def anything():
                return random.random()
        """
        assert lint(snippet, "tests/workload/test_x.py") == []

    def test_findings_are_sorted_and_formatted(self):
        snippet = """
            import random

            def f(link):
                link.residual = 0.0
                return random.random()
        """
        findings = lint(snippet, "src/repro/core/x.py")
        assert rule_ids(findings) == ["RL002", "RL003"]
        rendered = findings[0].format()
        assert rendered.startswith("src/repro/core/x.py:5:")
        assert "RL002" in rendered
