"""CLI round-trips for the cross-file pass: --update-api, --api-baseline,
and the project-index cache."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import ProjectIndex, iter_python_files

ENGINE = textwrap.dedent(
    """
    class StreamEngine:
        def __init__(self, network):
            self.network = network

    def run_stream(config):
        pass
    """
)
INIT = textwrap.dedent(
    """
    from repro.stream.engine import StreamEngine, run_stream
    __all__ = ["StreamEngine", "run_stream"]
    """
)


@pytest.fixture
def stream_tree(tmp_path, monkeypatch):
    """A tmp checkout holding a minimal repro.stream package, cwd'd into."""
    package = tmp_path / "src" / "repro" / "stream"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(INIT)
    (package / "engine.py").write_text(ENGINE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


#: The explicit form every check below uses: RL012 runs iff it is given.
CHECK = ["lint", "src", "--api-baseline", "api_baseline.json"]


class TestApiBaselineCli:
    def test_update_then_check_then_break(self, stream_tree, capsys):
        assert main(["lint", "src", "--update-api"]) == 0
        out = capsys.readouterr().out
        assert "wrote api_baseline.json" in out
        baseline = json.loads(
            (stream_tree / "api_baseline.json").read_text()
        )
        assert "repro.stream" in baseline["packages"]

        # clean against the fresh baseline
        assert main(CHECK) == 0
        capsys.readouterr()

        # an unexported public function breaks the lock
        engine = stream_tree / "src" / "repro" / "stream" / "engine.py"
        engine.write_text(ENGINE + "\ndef sneaky():\n    pass\n")
        assert main(CHECK) == 1
        out = capsys.readouterr().out
        assert "RL012" in out and "sneaky" in out

        # rebaselining adopts the change
        assert main(["lint", "src", "--update-api"]) == 0
        capsys.readouterr()
        assert main(CHECK) == 0

    def test_deleting_an_export_trips(self, stream_tree, capsys):
        assert main(["lint", "src", "--update-api"]) == 0
        init = stream_tree / "src" / "repro" / "stream" / "__init__.py"
        init.write_text(
            "from repro.stream.engine import StreamEngine\n"
            '__all__ = ["StreamEngine"]\n'
        )
        assert main(CHECK) == 1
        out = capsys.readouterr().out
        assert "no longer exports 'run_stream'" in out

    def test_signature_edit_trips_on_the_package_init(
        self, stream_tree, capsys
    ):
        assert main(["lint", "src", "--update-api"]) == 0
        capsys.readouterr()
        engine = stream_tree / "src" / "repro" / "stream" / "engine.py"
        # the *engine* changes, but the export's finding lands on
        # __init__.py, a file whose cache entry is still warm
        engine.write_text(ENGINE.replace(
            "def run_stream(config):", "def run_stream(config, extra):"
        ))
        assert main(CHECK) == 1
        out = capsys.readouterr().out
        assert "RL012" in out and "__init__.py" in out
        assert "run_stream" in out

    def test_lock_runs_only_when_a_baseline_is_given(
        self, stream_tree, capsys
    ):
        # a stale baseline in the cwd is not read unless named
        (stream_tree / "api_baseline.json").write_text(json.dumps(
            {"version": 1, "packages": {"repro.stream": {}}, "modules": {}}
        ))
        assert main(["lint", "src"]) == 0
        capsys.readouterr()
        assert main(CHECK) == 1
        assert "RL012" in capsys.readouterr().out

    def test_explicit_missing_baseline_is_a_usage_error(
        self, stream_tree, capsys
    ):
        assert main(["lint", "src", "--api-baseline", "nope.json"]) == 2
        assert "--update-api" in capsys.readouterr().err

    def test_malformed_baseline_is_a_usage_error(self, stream_tree, capsys):
        (stream_tree / "api_baseline.json").write_text('{"version": 99}')
        assert main(CHECK) == 2
        assert "version-1" in capsys.readouterr().err


class TestIndexCacheCli:
    def test_cache_file_is_written_and_reused(self, stream_tree, capsys):
        cache = stream_tree / "cache.json"
        assert main(["lint", "src", "--index-cache", str(cache)]) == 0
        assert cache.exists()
        payload = json.loads(cache.read_text())
        assert "src/repro/stream/engine.py".replace(
            "/", "/"
        ) in {k.replace("\\", "/") for k in payload["modules"]}
        assert main(["lint", "src", "--index-cache", str(cache)]) == 0

    def test_no_index_cache_touches_nothing(self, stream_tree):
        assert main(["lint", "src", "--no-index-cache"]) == 0
        assert not (stream_tree / ".repro_lint_cache.json").exists()


class TestChangedMode:
    """Every cached run re-analyses only the files that changed."""

    def test_no_changes_exits_zero(self, stream_tree, capsys):
        assert main(CHECK[:2] + ["--update-api"]) == 0
        assert main(CHECK) == 0
        capsys.readouterr()
        # the unedited tree is clean again, and nothing is re-parsed
        assert main(CHECK) == 0
        assert "0 findings" in capsys.readouterr().out
        index = ProjectIndex.build(
            iter_python_files(["src"]),
            cache_path=".repro_lint_cache.json",
        )
        assert (index.cache_hits, index.cache_misses) == (2, 0)

