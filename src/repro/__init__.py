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

from repro.core import (
    AdmissionPolicy,
    ExponentialCostModel,
    LinearCostModel,
    OnlineCP,
    OnlineCPK,
    PseudoMulticastTree,
    SPOnline,
    alg_one_server,
    appro_multi,
    appro_multi_cap,
    operational_cost,
    validate_pseudo_tree,
)
from repro.exceptions import (
    InfeasibleRequestError,
    ReproError,
)
from repro.graph import Graph, kmb_steiner_tree
from repro.network import Controller, SDNetwork, VMRegistry, build_sdn
from repro.nfv import FunctionType, ServiceChain
from repro.simulation import (
    run_offline,
    run_sequential_capacitated,
)
from repro.topology import (
    geant_graph,
    geant_servers,
    gt_itm_flat,
    rocketfuel_graph,
    rocketfuel_servers,
    waxman_graph,
)
from repro.workload import (
    MulticastRequest,
    RequestGenerator,
    WorkloadConfig,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "appro_multi",
    "appro_multi_cap",
    "OnlineCP",
    "OnlineCPK",
    "SPOnline",
    "alg_one_server",
    "PseudoMulticastTree",
    "operational_cost",
    "validate_pseudo_tree",
    "ExponentialCostModel",
    "LinearCostModel",
    "AdmissionPolicy",
    # substrates
    "Graph",
    "kmb_steiner_tree",
    "SDNetwork",
    "build_sdn",
    "Controller",
    "VMRegistry",
    "FunctionType",
    "ServiceChain",
    # topologies
    "gt_itm_flat",
    "waxman_graph",
    "geant_graph",
    "geant_servers",
    "rocketfuel_graph",
    "rocketfuel_servers",
    # workload + simulation
    "MulticastRequest",
    "RequestGenerator",
    "WorkloadConfig",
    "generate_workload",
    "run_offline",
    "run_sequential_capacitated",
    # errors
    "ReproError",
    "InfeasibleRequestError",
]
