"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the records ``bench/run.py --out FILE`` appended, one run
per line; ``A`` is the parent (or first set), ``B`` the change.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change of the median, and a verdict:

- ``gain``: B is better, won at least 9 of every 10 runs paired in file
  order (ties count for neither side), and the medians differ by more than
  A's interquartile range;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and B's runs do not all read better
  than all of A's;
- ``within bound``: otherwise.

There is no combined score.  The exit code is 1 when any row regressed or
is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Share of paired runs the change must win for a gain.
WIN_SHARE = 0.9

Values = Dict[str, Dict[str, List[float]]]


def load(path: str) -> Values:
    """``{workload: {metric: [value per run, in file order]}}`` of untraced runs."""
    values: Values = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for workload, report in record["workloads"].items():
                for metric, value in report["metrics"].items():
                    values[workload][metric].append(value["value"])
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool
) -> Tuple[str, float, Optional[int]]:
    """``(verdict, signed change of the median, paired wins of B or None)``."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    sign = -1.0 if lower_is_better else 1.0
    change = (b_median - a_median) / a_median
    worse = -sign * change

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) > 0

    wins = None
    if len(a) == len(b):
        wins = sum(beats(y, x) for x, y in zip(a, b))
        if (
            worse < 0
            and wins >= WIN_SHARE * len(a)
            and abs(b_median - a_median) > a_q3 - a_q1
        ):
            return "gain", change, wins
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    if spread > bound:
        all_better = all(beats(y, x) for x in a for y in b)
        return ("within bound" if all_better else "unresolved"), change, wins
    if worse > bound:
        return "regressed", change, wins
    return "within bound", change, wins


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    a_values, b_values = load(argv[0]), load(argv[1])
    failing = 0
    print(
        f"{'workload':20s} {'metric':16s} {'A median [q1, q3]':30s} "
        f"{'B median [q1, q3]':30s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for workload in sorted(set(a_values) & set(b_values)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = a_values[workload].get(name)
            b = b_values[workload].get(name)
            if not a or not b:
                continue
            result, change, wins = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            failing += result in ("regressed", "unresolved")
            pairs = f" (B won {wins}/{len(a)} pairs)" if wins is not None else ""
            print(
                f"{workload:20s} {name:16s} {_cell(a):30s} {_cell(b):30s} "
                f"{change:+8.2%} {metric['bound']:6.0%}  {result}{pairs}"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
