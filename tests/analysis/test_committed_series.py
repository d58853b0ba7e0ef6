"""The fast profile still reproduces the committed series, bit for bit.

``experiments_fast.json`` holds every experiment's panels at the fast
profile.  Solver changes must leave every non-time series identical: the
same decisions give the same costs and admission counts.  Running the
whole file takes minutes, so this check covers a cheap subset that still
crosses both solver families: Fig. 6 (``Appro_Multi`` and
``Alg_One_Server`` on the real topologies) and Fig. 9 (``Online_CP`` and
``SP`` streams, whose unit-cost ``SP`` searches tie often and so run the
CSR kernel's tie fallback).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.export import figure_to_dict
from repro.analysis.profiles import get_profile
from repro.analysis.report import run_experiment

COMMITTED = Path(__file__).resolve().parents[2] / "experiments_fast.json"


def _timeless(panels):
    """JSON-normalised panels, timing panels and series dropped."""
    kept = []
    for panel in json.loads(json.dumps(panels)):
        if "time" in panel["figure_id"]:
            continue
        panel["series"] = [
            series for series in panel["series"] if "time" not in series["label"]
        ]
        kept.append(panel)
    return kept


@pytest.mark.parametrize("name", ["fig6", "fig9"])
def test_fast_profile_series_equal_committed(name):
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))[name]
    fresh = [
        figure_to_dict(panel)
        for panel in run_experiment(name, get_profile("fast"))
    ]
    expected = _timeless(committed)
    assert expected, f"{name} has no non-time panels to compare"
    assert _timeless(fresh) == expected
