"""Bench: CSR-native ``Appro_Multi`` core vs the dict path, end to end.

The tentpole claim of the CSR-native solver core: compiling the request's
auxiliary graph into one epoch-stamped CSR view — virtual source as one
appended row, only the virtual-edge block varying across the ``V_S^i``
combination sweep — makes the end-to-end ``Appro_Multi`` per-request
latency at least **5×** faster than the dict path, while decoding
bit-identical trees (dict insertion order included).

The dict path is ``appro_multi_reference``: the seed engine that
round-trips through dict ``Graph`` objects for auxiliary-graph
construction, Dijkstra, metric closure, KMB, and MST on every server
combination.  Timing is best-of-rounds with the two engines interleaved
inside each round, cold caches per round; tree identity is verified outside
the timed region.  Results merge into ``BENCH_csr.json`` under ``"appro"``,
next to the raw Dijkstra sweep cases.

Run as a module for the JSON artifact without pytest::

    PYTHONPATH=src python benchmarks/test_appro_csr.py
"""

import json
import os

from repro.obs.bench import MIN_APPRO_SPEEDUP, run_appro_benchmark

_HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_PATH = os.path.join(_HERE, "..", "BENCH_csr.json")


def run_benchmark():
    """Time both engines end to end and merge the artifact."""
    return run_appro_benchmark(output_path=RESULT_PATH)


def test_appro_csr_speedup():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
    assert payload["tree_mismatches"] == 0, (
        "CSR-native Appro_Multi trees diverged from the dict path"
    )
    assert payload["speedup"] >= MIN_APPRO_SPEEDUP, (
        f"CSR-native core only {payload['speedup']:.2f}x faster than the "
        f"dict path (need >= {MIN_APPRO_SPEEDUP}x); see BENCH_csr.json"
    )


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2, sort_keys=True))
    clean = result["tree_mismatches"] == 0
    status = (
        "PASS" if result["speedup"] >= MIN_APPRO_SPEEDUP and clean else "FAIL"
    )
    print(
        f"{status}: {result['speedup']:.2f}x "
        f"(need >= {MIN_APPRO_SPEEDUP}x, mismatches "
        f"{result['tree_mismatches']})"
    )
