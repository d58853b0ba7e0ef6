"""Run the repository benchmark and print every metric with its unit.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--requests N] [--out FILE]

Run from the repository root.  Each workload runs in its own fresh
interpreter (``bench/workloads.py``), one at a time, after five more fresh
interpreters have timed the set-up (spawn to ready to serve).  With
``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  The decision
digest of each workload is checked against ``bench/digests.json`` when
the seed and pass size are pinned there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With one workload
the metric names are those of ``BENCHMARK.json``; with several they are
prefixed ``<workload>/``.  The exit code is 0 only when every check
passed.  ``--out FILE`` appends the full record of the invocation, with
its provenance, as one JSON line (``bench/compare.py`` reads such files).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 20170605  # must equal workloads.DEFAULT_SEED

#: Fresh interpreters timed per workload; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: Slack beyond ``--seconds`` for one measuring child: its first passes
#: always complete, whatever the deadline.
CHILD_GRACE_S = 120.0
SPAWN_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _child_command(mode: str, workload: str, seed: int, requests: Optional[int]) -> List[str]:
    command = [
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        mode,
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if requests is not None:
        command += ["--requests", str(requests)]
    return command


def spawn_to_ready(workload: str, seed: int, requests: Optional[int]) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    command = _child_command("ready", workload, seed, requests)
    start = time.perf_counter()
    with subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        cwd=ROOT,
    ) as child:
        line = child.stdout.readline() if child.stdout else ""
        ready = time.perf_counter()
        try:
            _, err = child.communicate(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            _, err = child.communicate()
    if child.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe of {workload} failed:\n{err[-2000:]}")
    return ready - start


def measure(
    workload: str, seed: int, seconds: float, trace: bool, requests: Optional[int]
) -> Dict[str, Any]:
    """Run one measuring child and return its report."""
    command = _child_command("measure", workload, seed, requests)
    command += ["--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
            timeout=seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def pin_errors(report: Dict[str, Any], pins: Dict[str, Any]) -> List[str]:
    """Mismatches between a report's digest and its pinned digest, if any."""
    pin = pins.get(report["workload"])
    if pin is None or pin["pass_requests"] != report["pass_requests"]:
        return []
    expected = pin["digests"].get(str(report["seed"]))
    if expected is None or expected == report["digest"]:
        return []
    return [
        f"{report['workload']} seed {report['seed']}: digest "
        f"{report['digest']} != pinned {expected}"
    ]


def _git_commit() -> Optional[str]:
    """The checked-out commit read from ``.git``, or ``None`` without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(argv: List[str], seed: int) -> Dict[str, Any]:
    """Where and how the numbers were measured."""
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "command": ["python3", "bench/run.py", *argv],
    }


def _parse(argv: List[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measuring time per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override the pass size (smoke runs; digests are pinned only "
        "at the default size)",
    )
    parser.add_argument("--out", help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv: Optional[List[str]] = None, pins_path: Path = DIGESTS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    record: Dict[str, Any] = {
        "provenance": provenance(argv, args.seed),
        "trace": args.trace,
        "workloads": {},
    }
    try:
        for name in args.workload:
            setup = [
                spawn_to_ready(name, args.seed, args.requests)
                for _ in range(0 if args.trace else SETUP_SPAWNS)
            ]
            report = measure(
                name, args.seed, args.seconds, bool(args.trace), args.requests
            )
            for binding in report.get("unresolved_bindings", []):
                print(f"warning: {binding} not found; not traced", file=sys.stderr)
            values = report.pop("layers") if args.trace else report["metrics"]
            if setup:
                values["setup_s"] = statistics.median(setup)
                report["setup_spawns_s"] = setup
            report["errors"] += pin_errors(report, pins)
            report["metrics"] = {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in units.items()
            }
            record["workloads"][name] = report
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reports = record["workloads"].values()
    correct = all(not report["errors"] for report in reports)
    prefix = len(args.workload) > 1
    result = {
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            (f"{name}/{metric}" if prefix else metric): value
            for name, report in record["workloads"].items()
            for metric, value in report["metrics"].items()
        },
    }
    for name, report in record["workloads"].items():
        print(
            f"{name}: {report['passes']} passes of {report['pass_requests']} "
            f"requests, digest {report['digest'][:16]}"
        )
        for metric, value in report["metrics"].items():
            print(f"  {metric:40s} {value['value']:>14.6g} {value['unit']}")
        for error in report["errors"]:
            print(f"  ERROR {error}")
    print(json.dumps({"provenance": record["provenance"]}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
