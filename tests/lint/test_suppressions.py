"""Suppression pragmas: line, standalone, multi-rule and file-wide."""

import textwrap

from repro.lint import lint_source

PATH = "src/repro/core/x.py"


def lint(source: str, path: str = PATH):
    return lint_source(textwrap.dedent(source), path=path)


class TestInlineSuppression:
    def test_trailing_pragma_silences_the_line(self):
        snippet = """
            import random

            def f():
                return random.random()  # repro-lint: disable=RL003
        """
        assert lint(snippet) == []

    def test_standalone_pragma_covers_next_line(self):
        snippet = """
            import random

            def f():
                # seeded upstream, see module docstring
                # repro-lint: disable=RL003
                return random.random()
        """
        assert lint(snippet) == []

    def test_pragma_lists_multiple_rules(self):
        snippet = """
            import random
            import time

            def f():
                return random.random(), time.time()  # repro-lint: disable=RL003,RL007
        """
        assert lint(snippet) == []

    def test_pragma_for_other_rule_does_not_silence(self):
        snippet = """
            import random

            def f():
                return random.random()  # repro-lint: disable=RL007
        """
        assert [f.rule for f in lint(snippet)] == ["RL003"]

    def test_pragma_only_covers_its_line(self):
        snippet = """
            import random

            def f():
                a = random.random()  # repro-lint: disable=RL003
                b = random.random()
                return a + b
        """
        findings = lint(snippet)
        assert [f.rule for f in findings] == ["RL003"]
        assert findings[0].line == 6


class TestFileSuppression:
    def test_disable_file_silences_everywhere(self):
        snippet = """
            # This module reports wall-clock runtimes as a result metric.
            # repro-lint: disable-file=RL007
            import time

            def a():
                return time.time()

            def b():
                return time.perf_counter()
        """
        assert lint(snippet) == []

    def test_disable_file_is_rule_specific(self):
        snippet = """
            # repro-lint: disable-file=RL007
            import random

            def f():
                return random.random()
        """
        assert [f.rule for f in lint(snippet)] == ["RL003"]

