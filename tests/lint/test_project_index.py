"""The project index: symbol tables, call graph, and the cache."""

import textwrap

from repro.lint.project import ProjectIndex, build_module_info, dotted_module


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def make_index(**sources) -> ProjectIndex:
    """Build an in-memory index from ``name="source"`` fixtures.

    Keys use double underscores for path separators:
    ``repro__stream__gen="..."`` becomes ``src/repro/stream/gen.py``.
    """
    return ProjectIndex.from_sources(
        {
            "src/" + name.replace("__", "/") + ".py": dedent(source)
            for name, source in sources.items()
        }
    )


class TestModuleFacts:
    def test_dotted_module_normalizes_init(self):
        assert dotted_module("repro/stream/engine.py") == "repro.stream.engine"
        assert dotted_module("repro/obs/__init__.py") == "repro.obs"

    def test_symbols_exports_and_signatures(self):
        info = build_module_info(
            "src/repro/stream/gen.py",
            dedent(
                """
                import hashlib
                import repro.graph.csr as csr
                from repro.obs import span as obs_span

                __all__ = ["make", "Stream"]

                def make(seed: int, *, limit=None) -> "Stream":
                    return Stream(seed)

                def _helper():
                    pass

                class Stream:
                    def __init__(self, seed):
                        self.seed = seed
                """
            ),
        )
        assert info.dotted == "repro.stream.gen"
        assert info.exports == ["make", "Stream"]
        assert info.public_defs == ["Stream", "make"]
        assert info.module_aliases["csr"] == "repro.graph.csr"
        assert info.imported_names["obs_span"] == "repro.obs.span"
        assert info.functions["make"].signature == (
            "(seed: int, *, limit=None) -> 'Stream'"
        )
        assert "_helper" in info.functions  # indexed, just not public

    def test_files_outside_repro_are_not_indexed(self):
        assert build_module_info("tests/test_x.py", "x = 1") is None

    def test_class_attribute_and_checkpoint_maps(self):
        info = build_module_info(
            "src/repro/stream/gen.py",
            dedent(
                """
                class Gen:
                    def __init__(self, seed):
                        self._produced = 0
                        self._label = str(seed)

                    def step(self):
                        self._produced += 1
                        self._pending.append(1)

                    def state(self):
                        base = {"produced": self._produced}
                        base["pending"] = list(self._pending)
                        return base

                    def restore(self, state):
                        self._produced = state["produced"]
                """
            ),
        )
        gen = info.classes["Gen"]
        assert set(gen.init_attrs) == {"_produced", "_label"}
        assert set(gen.mutated_attrs) == {"_produced", "_pending"}
        assert gen.has_state and gen.has_restore
        assert gen.state_keys == ["pending", "produced"]
        assert gen.restore_keys == ["produced"]

    def test_mutations_inside_state_and_restore_do_not_count(self):
        info = build_module_info(
            "src/repro/stream/gen.py",
            dedent(
                """
                class Gen:
                    def __init__(self):
                        self._cache = {}

                    def state(self):
                        self._cache = {}
                        return {}

                    def restore_state(self, state):
                        self._cache = dict(state)
                """
            ),
        )
        assert info.classes["Gen"].mutated_attrs == {}

    def test_suppression_maps_are_indexed(self):
        info = build_module_info(
            "src/repro/stream/gen.py",
            dedent(
                """
                # repro-lint: disable-file=RL007 -- example
                x = 1  # repro-lint: disable=RL010
                """
            ),
        )
        assert info.is_suppressed("RL007", 99)
        assert info.is_suppressed("RL010", 3)
        assert not info.is_suppressed("RL010", 4)


class TestResolution:
    def test_reexport_chain_resolves_to_definition(self):
        index = ProjectIndex.from_sources(
            {
                "src/repro/stream/__init__.py": dedent(
                    """
                    from repro.stream.engine import run
                    __all__ = ["run"]
                    """
                ),
                "src/repro/stream/engine.py": dedent(
                    """
                    def run():
                        pass
                    """
                ),
            }
        )
        assert (
            index.resolve_export("repro.stream.run")
            == "repro.stream.engine.run"
        )

    def test_reexport_cycle_terminates(self):
        index = make_index(
            repro__a="from repro.b import thing",
            repro__b="from repro.a import thing",
        )
        assert index.resolve_export("repro.a.thing") is None

    def test_method_node_lookup(self):
        index = make_index(
            repro__stream__engine="""
                class Engine:
                    def step(self):
                        pass
            """
        )
        module, func = index.function_node("repro.stream.engine.Engine.step")
        assert module is not None and func.name == "step"

    def test_base_class_resolution_through_imports(self):
        index = make_index(
            repro__stream__base="""
                class Base:
                    def state(self):
                        return {}
            """,
            repro__stream__gen="""
                from repro.stream.base import Base

                class Child(Base):
                    pass
            """,
        )
        child = index.by_dotted["repro.stream.gen"].classes["Child"]
        assert child.bases == ["repro.stream.base.Base"]


class TestCallGraph:
    CYCLIC = dict(
        repro__core__a="""
            from repro.core.b import beta

            def alpha():
                return beta()
        """,
        repro__core__b="""
            from repro.core.a import alpha

            def beta():
                return alpha()
        """,
    )

    def test_reach_through_aliased_import_and_hop(self):
        index = make_index(
            repro__core__helper="""
                import time

                def now():
                    return time.time()
            """,
            repro__core__solver="""
                from repro.core.helper import now as clock

                def solve():
                    return clock()
            """,
        )
        sink = lambda call: call == "time.time"
        assert index.reaches_sink(
            "repro.core.solver.solve", "t", sink, lambda m: False
        )
        assert index.reaches_sink(
            "repro.core.helper.now", "t", sink, lambda m: False
        )

    def test_cycle_without_sink_is_false(self):
        index = make_index(**self.CYCLIC)
        assert not index.reaches_sink(
            "repro.core.a.alpha", "t", lambda c: False, lambda m: False
        )

    def test_cycle_with_sink_is_true_from_both_members(self):
        sources = dict(self.CYCLIC)
        sources["repro__core__b"] = """
            import time
            from repro.core.a import alpha

            def beta():
                time.time()
                return alpha()
        """
        index = make_index(**sources)
        sink = lambda call: call == "time.time"
        for entry in ("repro.core.a.alpha", "repro.core.b.beta"):
            assert index.reaches_sink(entry, "t", sink, lambda m: False)

    def test_exempt_module_absorbs(self):
        index = make_index(
            repro__graph__spcache="""
                import time

                def lookup():
                    return time.time()
            """,
            repro__core__solver="""
                from repro.graph.spcache import lookup

                def solve():
                    return lookup()
            """,
        )
        assert not index.reaches_sink(
            "repro.core.solver.solve",
            "t",
            lambda call: call == "time.time",
            lambda module: module == "repro/graph/spcache.py",
        )


class TestCache:
    def write_tree(self, root, body="def f():\n    pass\n"):
        package = root / "src" / "repro" / "stream"
        package.mkdir(parents=True, exist_ok=True)
        (package / "gen.py").write_text(body)
        return str(package / "gen.py")

    def test_cold_build_then_warm_hit(self, tmp_path):
        path = self.write_tree(tmp_path)
        cache = str(tmp_path / "cache.json")
        first = ProjectIndex.build([path], cache_path=cache)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = ProjectIndex.build([path], cache_path=cache)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert "f" in second.by_dotted["repro.stream.gen"].functions

    def test_edit_invalidates_only_that_file(self, tmp_path):
        path = self.write_tree(tmp_path)
        other = str(tmp_path / "src" / "repro" / "stream" / "other.py")
        with open(other, "w") as handle:
            handle.write("def g():\n    pass\n")
        cache = str(tmp_path / "cache.json")
        ProjectIndex.build([path, other], cache_path=cache)
        self.write_tree(tmp_path, body="def f2():\n    pass\n")
        rebuilt = ProjectIndex.build([path, other], cache_path=cache)
        assert (rebuilt.cache_hits, rebuilt.cache_misses) == (1, 1)
        assert "f2" in rebuilt.by_dotted["repro.stream.gen"].functions

    def test_corrupt_cache_is_ignored(self, tmp_path):
        path = self.write_tree(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        index = ProjectIndex.build([path], cache_path=str(cache))
        assert index.cache_misses == 1

    def test_syntax_error_lands_in_broken(self, tmp_path):
        path = self.write_tree(tmp_path, body="def broken(:\n")
        index = ProjectIndex.build([path], cache_path=None)
        assert path in index.broken
        assert index.modules == {}
