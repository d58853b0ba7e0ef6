"""Executable paper-claim verification.

EXPERIMENTS.md's "expected shape" prose is turned into code here: every
qualitative claim the paper makes about its figures becomes a checkable
predicate over the reproduced series, and :func:`verify_results` grades a
full experiment run.  The CLI prints the verdict table after ``all`` runs
and embeds it at the top of the generated markdown, so a reader can see at
a glance which claims reproduce and which (if any) drift.

Claims are graded as:

- ``PASS`` / ``FAIL`` — the predicate held / did not;
- ``SKIP`` — the experiment was not part of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.series import FigureResult

Results = Dict[str, List[FigureResult]]


@dataclass(frozen=True)
class ClaimVerdict:
    """The outcome of checking one paper claim against measured data."""

    claim_id: str
    description: str
    status: str  # PASS / FAIL / SKIP
    detail: str = ""


def _panels(results: Results, experiment: str) -> Optional[List[FigureResult]]:
    return results.get(experiment)


# ----------------------------------------------------------------------
# individual claim checks; each returns (passed, detail)
# ----------------------------------------------------------------------
def _check_fig5_cost(panels: List[FigureResult]):
    ratios = []
    for panel in panels:
        if not panel.figure_id.startswith("fig5-cost"):
            continue
        appro = panel.series_by_label("Appro_Multi").values
        base = panel.series_by_label("Alg_One_Server").values
        if not all(a < b for a, b in zip(appro, base)):
            return False, f"{panel.figure_id}: Appro_Multi not always cheaper"
        ratios.extend(a / b for a, b in zip(appro, base))
    return True, f"cost ratios {min(ratios):.2f}–{max(ratios):.2f}"


def _check_fig5_gap_growth(panels: List[FigureResult]):
    for panel in panels:
        if not panel.figure_id.startswith("fig5-cost"):
            continue
        appro = panel.series_by_label("Appro_Multi").values
        base = panel.series_by_label("Alg_One_Server").values
        gaps = [b - a for a, b in zip(appro, base)]
        if gaps[-1] <= gaps[0]:
            return False, (
                f"{panel.figure_id}: gap {gaps[0]:.2f} → {gaps[-1]:.2f}"
            )
    return True, "absolute gap grows with network size in every panel"


def _check_fig5_runtime(panels: List[FigureResult]):
    for panel in panels:
        if not panel.figure_id.startswith("fig5-time"):
            continue
        appro = panel.series_by_label("Appro_Multi").values
        base = panel.series_by_label("Alg_One_Server").values
        if not all(a > b for a, b in zip(appro, base)):
            return False, f"{panel.figure_id}: Appro_Multi not slower"
    return True, "Appro_Multi slower at every point (combination search)"


def _check_fig6_cost(panels: List[FigureResult]):
    for panel in panels:
        if not panel.figure_id.startswith("fig6-cost"):
            continue
        appro = panel.series_by_label("Appro_Multi").values
        base = panel.series_by_label("Alg_One_Server").values
        if not all(a < b for a, b in zip(appro, base)):
            return False, f"{panel.figure_id}: not always cheaper"
    return True, "Appro_Multi cheaper at every ratio on every real topology"


def _check_fig7(panels: List[FigureResult]):
    panel = panels[0]
    cap = panel.series_by_label("Appro_Multi_Cap").values
    uncap = panel.series_by_label("Appro_Multi (uncapacitated)").values
    if not all(c >= u - 1e-9 for c, u in zip(cap, uncap)):
        return False, "capacitated tree cheaper than uncapacitated"
    worst = max(c / u for c, u in zip(cap, uncap) if u)
    return True, f"capacity constraints inflate cost by up to {worst:.3f}x"


def _check_fig8(panels: List[FigureResult]):
    panel = panels[0]
    cp = panel.series_by_label("Online_CP").values
    sp = panel.series_by_label("SP").values
    if not all(c >= s for c, s in zip(cp, sp)):
        return False, "SP admitted more at some size"
    if not sum(cp) > sum(sp):
        return False, "no overall advantage"
    return True, f"Online_CP/SP totals {sum(cp):.0f}/{sum(sp):.0f}"


def _check_fig8_nonmonotone(panels: List[FigureResult]):
    cp = panels[0].series_by_label("Online_CP").values
    monotone = cp == sorted(cp) or cp == sorted(cp, reverse=True)
    if len(cp) < 3:
        return True, "sweep too short to assess (needs ≥ 3 sizes)"
    if monotone:
        return False, f"admissions monotone across sizes: {cp}"
    return True, f"admissions non-monotone: {cp}"


def _check_fig9(panels: List[FigureResult]):
    for panel in panels:
        cp = panel.series_by_label("Online_CP").values
        sp = panel.series_by_label("SP").values
        if cp[0] < 0.8 * panel.xs[0]:
            return False, f"{panel.figure_id}: heavy rejection at light load"
        if cp[-1] < sp[-1]:
            return False, f"{panel.figure_id}: SP ahead at full load"
    return True, "light load ≈ everything admitted; Online_CP ahead under load"


def _check_kmb_bound(panels: List[FigureResult]):
    for panel in panels:
        if panel.figure_id != "ablation-kmb":
            continue
        ratios = panel.series_by_label("cost ratio").values
        if not all(r <= 2.0 + 1e-9 for r in ratios):
            return False, f"ratio above 2: {max(ratios):.3f}"
        return True, f"worst empirical ratio {max(ratios):.3f} (bound 2.0)"
    return False, "ablation-kmb panel missing"


def _check_topology_robustness(panels: List[FigureResult]):
    for panel in panels:
        if panel.figure_id != "ablation-topology":
            continue
        ratios = panel.series_by_label("cost ratio").values
        if not all(r < 1.0 for r in ratios):
            return False, f"gap lost on some family: {ratios}"
        return True, (
            f"Appro_Multi wins on all families "
            f"(ratios {min(ratios):.2f}–{max(ratios):.2f})"
        )
    return False, "ablation-topology panel missing"


def _check_competitive(panels: List[FigureResult]):
    ratio_panel = panels[1]
    cp = ratio_panel.series_by_label("Online_CP / oracle").values
    if not all(r > 0.5 for r in cp):
        return False, f"ratio fell to {min(cp):.2f}"
    return True, (
        f"empirical ratio {min(cp):.2f}–{max(cp):.2f}, far above the "
        "Ω(1/log|V|) guarantee"
    )


def _check_resilience_cost(panels: List[FigureResult]):
    cost = next(p for p in panels if p.figure_id == "resilience-cost")
    names = [str(x) for x in cost.xs]
    mean_cost = cost.series_by_label("mean_repair_cost").values
    graft = mean_cost[names.index("graft")]
    readmit = mean_cost[names.index("readmit")]
    if not graft < readmit:
        return False, (
            f"graft repairs not cheaper: graft={graft:.2f} "
            f"readmit={readmit:.2f}"
        )
    return True, (
        f"mean repair cost graft={graft:.2f} < readmit={readmit:.2f}"
    )


def _check_resilience_disruption(panels: List[FigureResult]):
    service = next(
        p for p in panels if p.figure_id == "resilience-service"
    )
    names = [str(x) for x in service.xs]
    ratio = service.series_by_label("disruption_ratio").values
    drop = ratio[names.index("drop")]
    graft = ratio[names.index("graft")]
    readmit = ratio[names.index("readmit")]
    if not (graft < drop and readmit < drop):
        return False, (
            f"repair did not reduce disruption: drop={drop:.3f} "
            f"readmit={readmit:.3f} graft={graft:.3f}"
        )
    return True, (
        f"disruption ratio drop={drop:.3f} > readmit={readmit:.3f}, "
        f"graft={graft:.3f}"
    )


#: (claim id, experiment, human description, checker)
CLAIMS = [
    ("fig5-cheaper", "fig5",
     "Appro_Multi costs less than Alg_One_Server on random networks",
     _check_fig5_cost),
    ("fig5-gap-grows", "fig5",
     "the absolute cost gap widens with network size",
     _check_fig5_gap_growth),
    ("fig5-slower", "fig5",
     "Appro_Multi takes (slightly) longer than the baseline",
     _check_fig5_runtime),
    ("fig6-real-topologies", "fig6",
     "the cost advantage holds on GÉANT and the ISP topologies",
     _check_fig6_cost),
    ("fig7-capacity-cost", "fig7",
     "capacity constraints make Appro_Multi_Cap costlier",
     _check_fig7),
    ("fig8-throughput", "fig8",
     "Online_CP admits more requests than SP at every size",
     _check_fig8),
    ("fig8-nonmonotone", "fig8",
     "admitted count is not monotone in the network size",
     _check_fig8_nonmonotone),
    ("fig9-load-gap", "fig9",
     "both admit ~everything lightly loaded; Online_CP ahead under load",
     _check_fig9),
    ("thm1-kmb-bound", "ablations",
     "the per-combination 2-approximation bound holds empirically",
     _check_kmb_bound),
    ("topology-robustness", "ablations",
     "the offline gap is robust across topology families",
     _check_topology_robustness),
    ("thm2-empirical", "competitive",
     "Online_CP sits far above its worst-case competitive guarantee",
     _check_competitive),
    ("resilience-graft-cheaper", "resilience",
     "subtree grafting repairs cost less than full readmission",
     _check_resilience_cost),
    ("resilience-repair-helps", "resilience",
     "repairing drops fewer requests than the drop-affected baseline",
     _check_resilience_disruption),
]


def verify_results(results: Results) -> List[ClaimVerdict]:
    """Grade every paper claim against a run's results."""
    verdicts = []
    for claim_id, experiment, description, checker in CLAIMS:
        panels = _panels(results, experiment)
        if panels is None:
            verdicts.append(
                ClaimVerdict(claim_id, description, "SKIP",
                             f"experiment {experiment!r} not in this run")
            )
            continue
        try:
            passed, detail = checker(panels)
        except (KeyError, IndexError) as exc:
            verdicts.append(
                ClaimVerdict(claim_id, description, "FAIL",
                             f"missing data: {exc!r}")
            )
            continue
        verdicts.append(
            ClaimVerdict(
                claim_id, description, "PASS" if passed else "FAIL", detail
            )
        )
    return verdicts


def render_verdicts(verdicts: List[ClaimVerdict]) -> str:
    """Aligned text table of claim verdicts."""
    width = max(len(v.claim_id) for v in verdicts)
    lines = ["paper-claim verification:"]
    for verdict in verdicts:
        lines.append(
            f"  [{verdict.status:<4}] {verdict.claim_id.ljust(width)}  "
            f"{verdict.description}"
        )
        if verdict.detail:
            lines.append(f"  {'':<7}{' ' * width}  -> {verdict.detail}")
    counts = {
        status: sum(1 for v in verdicts if v.status == status)
        for status in ("PASS", "FAIL", "SKIP")
    }
    lines.append(
        f"  {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped"
    )
    return "\n".join(lines)


def verdicts_markdown(verdicts: List[ClaimVerdict]) -> str:
    """Markdown table of claim verdicts for EXPERIMENTS.md."""
    lines = [
        "| status | claim | evidence |",
        "|---|---|---|",
    ]
    for verdict in verdicts:
        icon = {"PASS": "✅", "FAIL": "❌", "SKIP": "⏭"}[verdict.status]
        lines.append(
            f"| {icon} {verdict.status} | {verdict.description} | "
            f"{verdict.detail} |"
        )
    return "\n".join(lines)
