"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ["fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "all"]:
            assert name in out

    def test_demo(self, capsys):
        assert main(["demo", "--size", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "network:" in out
        assert "Online_CP admitted" in out

    def test_unknown_profile_errors(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["fig5", "--profile", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_output_json_and_chart(self, tmp_path, capsys):
        import json

        markdown = tmp_path / "out.md"
        payload = tmp_path / "out.json"
        assert main([
            "fig5", "--profile", "fast",
            "--output", str(markdown),
            "--json", str(payload),
            "--chart",
        ]) == 0
        content = markdown.read_text()
        assert "## fig5" in content
        parsed = json.loads(payload.read_text())
        assert "fig5" in parsed
        assert parsed["fig5"][0]["series"]
        out = capsys.readouterr().out
        # the chart legend with series markers was printed
        assert "o Appro_Multi" in out

    def test_bare_profile_prints_phase_table(self, capsys):
        assert main(["fig5", "--profile", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "appro_multi" in out
        assert "kmb" in out

    def test_metrics_out_writes_json_and_prometheus(self, tmp_path, capsys):
        import json

        from repro.obs.export import parse_prometheus

        metrics = tmp_path / "metrics.json"
        assert main([
            "fig5", "--profile", "fast",
            "--metrics-out", str(metrics),
            "--workers", "1",
        ]) == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["appro_multi.invocations"] > 0
        assert "run_offline" in snap["timers"]
        prom = tmp_path / "metrics.prom"
        assert prom.exists()
        parsed = parse_prometheus(prom.read_text())
        assert (
            parsed["repro_appro_multi_invocations_total"]
            == snap["counters"]["appro_multi.invocations"]
        )
        out = capsys.readouterr().out
        assert f"wrote {metrics}" in out
        assert f"wrote {prom}" in out

    @pytest.mark.parametrize(
        "target, flag",
        [("obs", ["--quick"]), ("stream", ["--rounds", "2"])],
    )
    def test_bench_refuses_a_flag_its_target_ignores(
        self, tmp_path, capsys, target, flag
    ):
        output = tmp_path / "bench.json"
        argv = ["bench", "--target", target, "--output", str(output), *flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag[0] in err and target in err
        assert not output.exists()  # refused before any benchmark ran

    def test_bench_writes_artifact(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        assert main([
            "bench", "--output", str(target),
            "--requests", "3", "--rounds", "1",
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["topology"] == "GEANT"
        assert payload["disabled_baseline_seconds"] > 0
        assert payload["counters"]["appro_multi.invocations"] == 3.0
        out = capsys.readouterr().out
        assert "disabled baseline" in out
        assert "phase breakdown" in out
