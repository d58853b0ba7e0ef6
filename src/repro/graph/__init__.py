"""Graph substrate: data structure and algorithms built from scratch.

This package contains everything the paper's algorithms need from graph
theory — Dijkstra, MSTs, metric closures, the KMB Steiner-tree
2-approximation, an exact Dreyfus–Wagner Steiner solver (test oracle), rooted
trees with LCA, and connectivity utilities — implemented on a lightweight
adjacency-list :class:`Graph` with no third-party dependencies.
"""

from repro.graph.components import (
    bfs_reachable,
    component_containing,
    component_index,
    connected_components,
    is_connected,
    same_component,
)
from repro.graph.csr import (
    CSRGraph,
    compile_csr,
    dijkstra_csr,
    dijkstra_many,
    dijkstra_rows,
)
from repro.graph.exact_steiner import dreyfus_wagner, steiner_cost_exact
from repro.graph.graph import Graph, edge_key, edges_of_path, path_weight
from repro.graph.heap import IndexedHeap
from repro.graph.mst import (
    kruskal_mst,
    minimum_spanning_tree,
    mst_weight,
    prim_mst,
)
from repro.graph.shortest_paths import (
    INFINITY,
    ShortestPathTree,
    all_pairs_shortest_paths,
    diameter,
    dijkstra,
    eccentricity,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from repro.graph.spcache import (
    ScaledDistances,
    ScaledGraphView,
    ScaledTree,
    ShortestPathCache,
    VersionedCacheRegistry,
)
from repro.graph.steiner import (
    MetricClosure,
    kmb_steiner_tree,
    kmb_steiner_tree_cached,
    metric_closure,
    steiner_tree_cost,
    validate_steiner_tree,
)
from repro.graph.tree import RootedTree, is_tree, prune_leaves
from repro.graph.unionfind import DisjointSet

__all__ = [
    "Graph",
    "CSRGraph",
    "IndexedHeap",
    "DisjointSet",
    "ShortestPathTree",
    "MetricClosure",
    "RootedTree",
    "INFINITY",
    "edge_key",
    "edges_of_path",
    "path_weight",
    "bfs_reachable",
    "component_containing",
    "component_index",
    "connected_components",
    "is_connected",
    "same_component",
    "ScaledDistances",
    "ScaledGraphView",
    "ScaledTree",
    "ShortestPathCache",
    "VersionedCacheRegistry",
    "compile_csr",
    "dijkstra_csr",
    "dijkstra_many",
    "dijkstra_rows",
    "dijkstra",
    "shortest_path",
    "shortest_path_length",
    "single_source_distances",
    "all_pairs_shortest_paths",
    "diameter",
    "eccentricity",
    "prim_mst",
    "kruskal_mst",
    "minimum_spanning_tree",
    "mst_weight",
    "metric_closure",
    "kmb_steiner_tree",
    "kmb_steiner_tree_cached",
    "steiner_tree_cost",
    "validate_steiner_tree",
    "dreyfus_wagner",
    "steiner_cost_exact",
    "is_tree",
    "prune_leaves",
]
