#!/usr/bin/env python3
"""System-monitoring fan-out in a transit–stub data-center fabric.

The paper's introduction lists "system monitoring in data centers" as a
multicast workload: telemetry from each rack head must reach a set of
collector nodes after passing an IDS + proxy chain.  This example builds a
two-level GT-ITM transit–stub fabric, admits one monitoring request per stub
domain with the capacitated solver ``Appro_Multi_Cap`` (resources are
committed as we go), and prints a capacity-planning report.

Run:  python examples/datacenter_monitoring.py
"""

import random

from repro import (
    appro_multi_cap,
    build_sdn,
    run_sequential_capacitated,
)
from repro.nfv import FunctionType, ServiceChain
from repro.topology import transit_stub_graph
from repro.workload import MulticastRequest

MONITORING_CHAIN = ServiceChain.of(FunctionType.IDS, FunctionType.PROXY)


def build_monitoring_requests(graph, collectors, rng):
    """One telemetry stream per stub domain toward the collector set."""
    stub_nodes = sorted(
        str(n) for n in graph.nodes() if str(n).startswith("s")
    )
    domains = sorted({name.rsplit(".", 1)[0] for name in stub_nodes})
    requests = []
    for index, domain in enumerate(domains, start=1):
        members = [n for n in stub_nodes if n.startswith(domain + ".")]
        source = rng.choice(members)
        destinations = [c for c in collectors if c != source]
        requests.append(
            MulticastRequest.create(
                index, source, destinations,
                bandwidth=rng.uniform(80.0, 160.0),
                chain=MONITORING_CHAIN,
            )
        )
    return requests


def main() -> None:
    rng = random.Random(29)
    graph = transit_stub_graph(
        transit_nodes=4, stubs_per_transit=3, stub_size=4, seed=29
    )
    # collectors sit on the transit core; servers on every transit node
    transit = sorted(str(n) for n in graph.nodes() if str(n).startswith("t"))
    network = build_sdn(graph, server_nodes=transit, seed=29)
    collectors = transit[:3]
    print(
        f"fabric: {network} "
        f"({len(transit)} transit nodes, collectors {collectors})\n"
    )

    requests = build_monitoring_requests(graph, collectors, rng)
    stats = run_sequential_capacitated(
        lambda net, req: appro_multi_cap(net, req, max_servers=2),
        network,
        requests,
    )

    print(f"monitoring streams admitted: {stats.solved}/{len(requests)}")
    print(f"streams without resources:   {stats.infeasible}")
    print(f"mean stream cost:            {stats.mean_cost:.2f}")
    print(f"mean servers per stream:     {stats.mean_servers_used:.2f}")
    print(f"mean solve time:             {1000 * stats.mean_runtime:.2f} ms")
    print(f"\ncapacity after admission:")
    print(f"  link utilization:   {network.mean_link_utilization():.2%}")
    print(f"  server utilization: {network.mean_server_utilization():.2%}")
    for server in sorted(network.server_nodes):
        state = network.server(server)
        bar = "#" * int(30 * state.utilization)
        print(f"  {server:>4} [{bar:<30}] {state.utilization:.1%}")


if __name__ == "__main__":
    main()
