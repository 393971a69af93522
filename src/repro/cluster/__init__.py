"""Cluster model: racks, hosts, VMs, placement and the dependency graph.

This subpackage holds the paper's Sec. II-C objects:

* ``V = {v_i}`` — delegation (shim) nodes, one per rack;
* ``H_i = {h_ij}`` — hosts inside rack ``v_i``;
* ``M_ij = {m^k_ij}`` — VMs placed on host ``h_ij``;
* the location function ``ξ`` (here: the :class:`~repro.cluster.placement.Placement`
  arrays mapping VM → host → rack);
* the dependency graph ``G_d`` over delegation nodes, induced from VM-pair
  dependencies.
"""

from repro.cluster.resources import (
    NUM_RESOURCES,
    RESOURCE_NAMES,
    ResourceKind,
    WorkloadProfile,
)
from repro.cluster.vm import VM
from repro.cluster.host import Host
from repro.cluster.rack import Rack
from repro.cluster.dependency import DependencyGraph
from repro.cluster.placement import Placement
from repro.cluster.snapshot import FleetSnapshot
from repro.cluster.cluster import Cluster, build_cluster
from repro.cluster.packing import POLICIES, build_cluster_packed, pack
from repro.cluster.shim import ShimView

__all__ = [
    "NUM_RESOURCES",
    "RESOURCE_NAMES",
    "ResourceKind",
    "WorkloadProfile",
    "VM",
    "Host",
    "Rack",
    "DependencyGraph",
    "Placement",
    "FleetSnapshot",
    "Cluster",
    "build_cluster",
    "build_cluster_packed",
    "pack",
    "POLICIES",
    "ShimView",
]
