"""Core: the paper's algorithms and their supporting machinery.

Public surface:

- :func:`appro_multi` / :func:`appro_multi_cap` — Algorithm 1 and its
  capacitated variant (Section IV).
- :class:`OnlineCP` — Algorithm 2, the online admission algorithm
  (Section V).
- :func:`alg_one_server`, :class:`SPOnline` — the comparison baselines.
- :class:`PseudoMulticastTree` — the routing structure all solvers emit.
- Cost models, admission policy, and exact reference solvers.
"""

from repro.core.admission import (
    AdmissionPolicy,
    release_tree,
    try_allocate,
)
from repro.core.appro_multi import (
    DEFAULT_MAX_SERVERS,
    ApproMultiResult,
    appro_multi,
    appro_multi_cap,
    appro_multi_detailed,
    appro_multi_reference,
)
from repro.core.auxiliary import (
    VIRTUAL_SOURCE,
    AuxiliaryContext,
    AuxiliaryCSR,
    FlatContext,
    SubsetSolution,
    build_context,
    evaluate_combination,
    explicit_auxiliary_graph,
    iter_combinations,
    scale_graph,
)
from repro.core.baselines import SPOnline, alg_one_server
from repro.core.cost_model import (
    CostModel,
    ExponentialCostModel,
    LinearCostModel,
    LinkPrices,
    UtilizationCostModel,
)
from repro.core.delay_aware import (
    DelayAwareSolution,
    delay_aware_multicast,
)
from repro.core.fasteval import (
    CSRCombinationEvaluator,
    CSRSubsetSolution,
)
from repro.core.exact import (
    optimal_auxiliary_cost,
    optimal_single_server_cost,
)
from repro.core.online_base import (
    OnlineAlgorithm,
    OnlineDecision,
    RejectReason,
)
from repro.core.online_cp import OnlineCP, OnlineCPReference
from repro.core.online_multi import OnlineCPK
from repro.core.pseudo_tree import (
    PseudoMulticastTree,
    operational_cost,
    validate_pseudo_tree,
)

__all__ = [
    "appro_multi",
    "appro_multi_cap",
    "appro_multi_detailed",
    "appro_multi_reference",
    "ApproMultiResult",
    "AuxiliaryCSR",
    "CSRCombinationEvaluator",
    "CSRSubsetSolution",
    "FlatContext",
    "DEFAULT_MAX_SERVERS",
    "OnlineCP",
    "OnlineCPK",
    "OnlineCPReference",
    "DelayAwareSolution",
    "delay_aware_multicast",
    "SPOnline",
    "alg_one_server",
    "OnlineAlgorithm",
    "OnlineDecision",
    "RejectReason",
    "PseudoMulticastTree",
    "operational_cost",
    "validate_pseudo_tree",
    "CostModel",
    "ExponentialCostModel",
    "LinearCostModel",
    "LinkPrices",
    "UtilizationCostModel",
    "AdmissionPolicy",
    "try_allocate",
    "release_tree",
    "optimal_auxiliary_cost",
    "optimal_single_server_cost",
    "VIRTUAL_SOURCE",
    "AuxiliaryContext",
    "SubsetSolution",
    "build_context",
    "evaluate_combination",
    "explicit_auxiliary_graph",
    "iter_combinations",
    "scale_graph",
]
