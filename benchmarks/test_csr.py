"""Bench: compiled CSR Dijkstra engine vs the dict engine.

The claim of the CSR kernel (``repro.graph.csr``): compiling a
topology once into flat integer-indexed arrays makes every subsequent
single-source Dijkstra at least **2×** faster than the dict-of-dict engine,
while decoding to bit-identical :class:`ShortestPathTree` results.  Two
cases: the GÉANT figure-series topology and a reweighted 500-node
Erdős–Rényi scaling graph.  Results land in ``BENCH_csr.json`` next to
``BENCH_spcache.json``, so the speedup is recorded, not just asserted.

Timing is best-of-rounds with the two engines interleaved inside each
round (dict sweep, then CSR sweep), so both sample the same machine noise;
the minimum round per engine is the standard robust estimator for "how
fast can this code go" under scheduler noise.

Run as a module for the JSON artifact without pytest::

    PYTHONPATH=src python benchmarks/test_csr.py
"""

import json
import os

from repro.obs.bench import MIN_CSR_SPEEDUP, run_csr_benchmark

_HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_PATH = os.path.join(_HERE, "..", "BENCH_csr.json")


def run_benchmark():
    """Time both engines on both cases and write the artifact."""
    return run_csr_benchmark(output_path=RESULT_PATH)


def test_csr_speedup():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
    for case in payload["cases"]:
        assert case["tree_mismatches"] == 0, (
            f"{case['name']}: CSR trees diverged from the dict engine"
        )
        assert case["speedup"] >= MIN_CSR_SPEEDUP, (
            f"{case['name']}: CSR engine only {case['speedup']:.2f}x faster "
            f"than the dict engine (need >= {MIN_CSR_SPEEDUP}x); see "
            "BENCH_csr.json"
        )


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    worst = min(case["speedup"] for case in result["cases"])
    clean = all(case["tree_mismatches"] == 0 for case in result["cases"])
    status = "PASS" if worst >= MIN_CSR_SPEEDUP and clean else "FAIL"
    print(f"{status}: worst case {worst:.2f}x (need >= {MIN_CSR_SPEEDUP}x)")
