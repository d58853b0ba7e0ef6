"""CLI round-trips for ``repro lint`` (text and JSON reports)."""

import json
import textwrap

import pytest

from repro.cli import main

DIRTY = textwrap.dedent(
    """
    import random

    def f():
        return random.random()
    """
)
CLEAN = textwrap.dedent(
    """
    import random

    def f(seed):
        return random.Random(seed).random()
    """
)


@pytest.fixture(autouse=True)
def _cwd_in_tmp(tmp_path, monkeypatch):
    """Keep the default index cache out of the caller's working tree."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def dirty_tree(tmp_path):
    """A tmp tree whose path impersonates a repro module."""
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "dirty.py").write_text(DIRTY)
    return tmp_path / "src"


class TestLintCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "clean.py").write_text(CLEAN)
        assert main(["lint", str(tmp_path / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_dirty_run_exits_one_with_location(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "RL003" in out
        assert "dirty.py:5:" in out

    def test_json_format_round_trips(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["findings"]
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL003"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] == 5
        assert "random.random()" in finding["message"]
        assert finding["hint"]

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in [f"RL0{i:02d}" for i in range(1, 13)]:
            assert rule_id in out

    def test_syntax_error_is_a_finding(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "broken.py").write_text("def f(:\n")
        assert main(["lint", str(tmp_path / "src")]) == 1
        assert "RL000" in capsys.readouterr().out

    def test_broken_file_outside_the_package_is_a_finding(
        self, tmp_path, capsys
    ):
        # files outside repro are not linted, but a syntax error still fails
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "broken.py").write_text("def f(:\n")
        (scripts / "dirty.py").write_text(DIRTY)
        assert main(["lint", str(scripts)]) == 1
        out = capsys.readouterr().out
        assert "RL000" in out
        assert "RL003" not in out

    def test_unreadable_path_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing.py")]) == 2
        assert "missing.py" in capsys.readouterr().err

    def test_module_entry_point(self, dirty_tree):
        from repro.lint.cli import main as lint_main

        assert lint_main([str(dirty_tree)]) == 1
