"""Cluster model: the topology, the placement and the dependency graph.

This subpackage holds the paper's Sec. II-C objects, each once:

* ``V = {v_i}`` — delegation (shim) nodes, one per rack: the topology's
  ToR nodes;
* ``H_i = {h_ij}`` — hosts inside rack ``v_i``, and ``M_ij = {m^k_ij}`` —
  VMs placed on host ``h_ij``: rows of the
  :class:`~repro.cluster.placement.Placement` columns (capacity, value,
  delay sensitivity, rack);
* the location function ``ξ`` (the placement's ``vm_host`` and
  ``host_rack`` arrays mapping VM → host → rack);
* the dependency graph ``G_d`` over delegation nodes, induced from VM-pair
  dependencies.
"""

from repro.cluster.resources import (
    NUM_RESOURCES,
    RESOURCE_NAMES,
    ResourceKind,
)
from repro.cluster.dependency import DependencyGraph
from repro.cluster.placement import Placement
from repro.cluster.snapshot import FleetSnapshot
from repro.cluster.cluster import Cluster, build_cluster
from repro.cluster.packing import POLICIES, build_cluster_packed, pack

__all__ = [
    "NUM_RESOURCES",
    "RESOURCE_NAMES",
    "ResourceKind",
    "DependencyGraph",
    "Placement",
    "FleetSnapshot",
    "Cluster",
    "build_cluster",
    "build_cluster_packed",
    "pack",
    "POLICIES",
]
