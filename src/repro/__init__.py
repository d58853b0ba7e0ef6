"""repro — NFV-enabled multicasting in SDNs (ICDCS 2017 reproduction).

A complete, from-scratch implementation of Xu, Liang, Huang, Jia, Guo &
Galis, *Approximation and Online Algorithms for NFV-Enabled Multicasting in
SDNs* (ICDCS 2017): the ``Appro_Multi`` 2K-approximation, its capacitated
variant, the ``Online_CP`` online admission algorithm with exponential
congestion pricing, the paper's comparison baselines, and every substrate
they run on (graph algorithms, topology generators, an SDN resource model,
NFV service chains, and workload generators).

Quickstart::

    from repro import (
        appro_multi, build_sdn, generate_workload, gt_itm_flat,
    )

    graph = gt_itm_flat(50, seed=1)
    network = build_sdn(graph, seed=1)
    request = generate_workload(graph, count=1, seed=7)[0]
    tree = appro_multi(network, request, max_servers=3)
    print(tree.describe())
"""

import importlib

__version__ = "1.0.0"

#: Every exported name and the module that defines it.  Names resolve on
#: first use (PEP 562), so ``import repro`` loads no solver module and
#: ``repro lint`` starts without the solver stack.
_EXPORTS = {
    # core algorithms
    "appro_multi": "repro.core.appro_multi",
    "appro_multi_cap": "repro.core.appro_multi",
    "OnlineCP": "repro.core.online_cp",
    "OnlineCPK": "repro.core.online_multi",
    "SPOnline": "repro.core.baselines",
    "alg_one_server": "repro.core.baselines",
    "PseudoMulticastTree": "repro.core.pseudo_tree",
    "operational_cost": "repro.core.pseudo_tree",
    "validate_pseudo_tree": "repro.core.pseudo_tree",
    "ExponentialCostModel": "repro.core.cost_model",
    "LinearCostModel": "repro.core.cost_model",
    "AdmissionPolicy": "repro.core.admission",
    # substrates
    "Graph": "repro.graph.graph",
    "kmb_steiner_tree": "repro.graph.steiner",
    "SDNetwork": "repro.network.sdn",
    "build_sdn": "repro.network.sdn",
    "Controller": "repro.network.controller",
    "FunctionType": "repro.nfv.functions",
    "ServiceChain": "repro.nfv.service_chain",
    # topologies
    "gt_itm_flat": "repro.topology.random_graphs",
    "waxman_graph": "repro.topology.random_graphs",
    "geant_graph": "repro.topology.geant",
    "geant_servers": "repro.topology.geant",
    "rocketfuel_graph": "repro.topology.rocketfuel",
    "rocketfuel_servers": "repro.topology.rocketfuel",
    # workload + simulation
    "MulticastRequest": "repro.workload.request",
    "RequestGenerator": "repro.workload.generator",
    "WorkloadConfig": "repro.workload.generator",
    "generate_workload": "repro.workload.generator",
    "run_offline": "repro.simulation.engine",
    "run_sequential_capacitated": "repro.simulation.engine",
    # errors
    "ReproError": "repro.exceptions",
    "InfeasibleRequestError": "repro.exceptions",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    # An unknown name raises AttributeError, which ``from repro import
    # obs`` needs in order to fall back to importing the subpackage.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
