"""Analysis: one reproduction driver per figure of the paper."""

import importlib

#: Every exported name and the module that defines it, imported on first
#: use (PEP 562) so that ``import repro.analysis.<module>`` loads only
#: that module's own dependencies.
_EXPORTS = {
    "run_fig5": "repro.analysis.fig5",
    "run_fig6": "repro.analysis.fig6",
    "run_fig7": "repro.analysis.fig7",
    "run_fig8": "repro.analysis.fig8",
    "run_fig9": "repro.analysis.fig9",
    "run_ablations": "repro.analysis.ablations",
    "run_competitive": "repro.analysis.competitive",
    "run_fig8_ci": "repro.analysis.confidence_runs",
    "offline_oracle_admissions": "repro.analysis.competitive",
    "render_chart": "repro.analysis.ascii_plot",
    "figure_to_csv": "repro.analysis.export",
    "figure_to_dict": "repro.analysis.export",
    "results_to_json": "repro.analysis.export",
    "write_json": "repro.analysis.export",
    "ablate_k": "repro.analysis.ablations",
    "ablate_online_k": "repro.analysis.ablations",
    "ablate_topology_family": "repro.analysis.ablations",
    "ablate_cost_model": "repro.analysis.ablations",
    "ablate_thresholds": "repro.analysis.ablations",
    "ablate_kmb_quality": "repro.analysis.ablations",
    "FIG6_RATIOS": "repro.analysis.fig6",
    "FIG7_RATIO": "repro.analysis.fig7",
    "ExperimentProfile": "repro.analysis.profiles",
    "FAST_PROFILE": "repro.analysis.profiles",
    "PAPER_PROFILE": "repro.analysis.profiles",
    "ONLINE_ALPHA_BETA": "repro.analysis.profiles",
    "get_profile": "repro.analysis.profiles",
    "EXPERIMENTS": "repro.analysis.report",
    "run_all": "repro.analysis.report",
    "run_experiment": "repro.analysis.report",
    "build_experiments_markdown": "repro.analysis.report",
    "FigureResult": "repro.analysis.series",
    "Series": "repro.analysis.series",
    "render_table": "repro.analysis.series",
    "SampleSummary": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "aggregate_over_seeds": "repro.analysis.stats",
    "curves_with_confidence": "repro.analysis.stats",
    "t_quantile_975": "repro.analysis.stats",
    "ClaimVerdict": "repro.analysis.verdicts",
    "verify_results": "repro.analysis.verdicts",
    "render_verdicts": "repro.analysis.verdicts",
    "verdicts_markdown": "repro.analysis.verdicts",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # An unknown name raises AttributeError, so ``from repro.analysis
    # import fig5`` still falls back to importing the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
