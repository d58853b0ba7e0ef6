"""Smoke tests of the benchmark itself, at a tiny pass size.

Run with ``pytest bench/`` (tier-1 collects only ``tests/``).
"""

from __future__ import annotations

import json

import pytest

import layers
import run
import workloads

SIZE = 50
SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED


def test_run_emits_every_end_to_end_metric_with_its_unit(capsys):
    code = run.main(["--seconds", "0", "--requests", str(SIZE)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    # At --seconds 0 each workload runs its minimum of two passes.
    assert result["attempted"] == 2 * SIZE * len(NAMES)
    expected = {
        f"{name}/{metric['name']}": metric["unit"]
        for name in NAMES
        for metric in SPEC["end_to_end"]
    }
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_decision_and_restores_every_binding(name):
    originals = {}
    for binding, _ in layers.BINDINGS:
        owner, attribute = layers.resolve(binding)
        originals[binding] = vars(owner)[attribute]

    bare = workloads.measure(name, workloads.DEFAULT_SEED, 0, False, SIZE)
    traced = workloads.measure(name, workloads.DEFAULT_SEED, 0, True, SIZE)

    assert traced["traced_digest"] == bare["digest"]
    assert bare["errors"] == [] and traced["errors"] == []
    assert traced["unresolved_bindings"] == []
    assert set(traced["layers"]) == {metric["name"] for metric in SPEC["per_layer"]}
    for binding, original in originals.items():
        owner, attribute = layers.resolve(binding)
        assert vars(owner)[attribute] is original, binding


def test_wrong_pinned_digest_fails_the_run(tmp_path, capsys):
    name = "cp-geant-overload"
    seed = workloads.DEFAULT_SEED
    digest = workloads.measure(name, seed, 0, False, SIZE)["digest"]
    argv = ["--workload", name, "--seconds", "0", "--requests", str(SIZE)]
    pins = tmp_path / "digests.json"

    pins.write_text(json.dumps(
        {name: {"pass_requests": SIZE, "digests": {str(seed): digest}}}
    ))
    assert run.main(argv, pins_path=pins) == 0

    pins.write_text(json.dumps(
        {name: {"pass_requests": SIZE, "digests": {str(seed): "0" * 64}}}
    ))
    assert run.main(argv, pins_path=pins) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
