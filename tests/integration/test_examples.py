"""The bundled examples must run cleanly end to end (subprocess smoke)."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
EXAMPLES = os.path.join(REPO_ROOT, "examples")


def run_example(name: str, timeout: int = 180) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "pseudo-multicast tree" in out
        assert "flow rules" in out
        assert "cheaper" in out

    def test_video_streaming(self):
        out = run_example("video_streaming_geant.py")
        assert "total operational cost" in out
        assert "news-hd" in out
        assert "REJECTED" not in out

    def test_datacenter_monitoring(self):
        out = run_example("datacenter_monitoring.py")
        assert "monitoring streams admitted" in out
        assert "server utilization" in out

    @pytest.mark.slow
    def test_online_admission_isp(self):
        out = run_example("online_admission_isp.py", timeout=300)
        assert "scenario 1" in out
        assert "scenario 2" in out
        assert "Online_CP admitted" in out
