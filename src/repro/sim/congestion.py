"""Switch congestion detection and outer-switch alert generation.

Sec. III-B case 3: switches signal congestion (via DSCP bits / QCN
feedback); a shim that learns an *outer* switch on its flows' paths is
hot selects flows with PRIORITY(F, α) and reroutes them around the
switch — migration only if rerouting cannot help.

This module closes the loop in simulation: given the shared
:class:`~repro.migration.reroute.FlowTable`, it measures per-switch flow
load against capacity, marks hot switches, and addresses an
``OUTER_SWITCH`` alert to every rack that originates flows through them
(the racks that can actually do something about it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.migration.reroute import FlowTable
from repro.topology.base import Topology

__all__ = ["switch_capacity", "hot_switches", "congestion_alerts"]


def switch_capacity(topology: Topology) -> np.ndarray:
    """Aggregate link capacity per node — the load a switch can carry.

    A switch saturates when the flow load through it approaches the sum
    of its link capacities (every unit of traversing flow crosses two of
    its ports; the factor cancels in the ratio against a same-convention
    threshold).
    """
    lt = topology.links
    cap = np.zeros(topology.num_nodes)
    np.add.at(cap, lt.u, lt.capacity)
    np.add.at(cap, lt.v, lt.capacity)
    return cap


def hot_switches(
    topology: Topology,
    flow_table: FlowTable,
    utilization_threshold: float = 0.7,
) -> List[int]:
    """Switch ids whose flow load exceeds the capacity fraction."""
    if not (0.0 < utilization_threshold <= 1.0):
        raise ConfigurationError(
            f"utilization_threshold must be in (0, 1], got {utilization_threshold}"
        )
    cap = switch_capacity(topology)
    load = flow_table.node_load
    hot: List[int] = []
    for sw in topology.switches():
        c = cap[sw]
        if c > 0 and load[sw] / c > utilization_threshold:
            hot.append(int(sw))
    return hot


def congestion_alerts(
    cluster: Cluster,
    flow_table: FlowTable,
    *,
    utilization_threshold: float = 0.7,
    time: int = 0,
) -> Tuple[List[Alert], Dict[int, float]]:
    """OUTER_SWITCH alerts for every (hot switch, originating rack) pair.

    Returns the same ``(alerts, vm_alerts)`` contract as the other
    scenario functions; ``vm_alerts`` carries, for each VM with flows
    through a hot switch, the worst utilization ratio among those
    switches — PRIORITY's selection signal.
    """
    topo = cluster.topology
    cap = switch_capacity(topo)
    alerts: List[Alert] = []
    vm_alerts: Dict[int, float] = {}
    for sw in hot_switches(topo, flow_table, utilization_threshold):
        ratio = float(min(1.0, flow_table.node_load[sw] / cap[sw]))
        through = flow_table.flows_through(sw)
        for rack in sorted({f.src_rack for f in through}):
            alerts.append(
                Alert(
                    kind=AlertKind.OUTER_SWITCH,
                    rack=rack,
                    magnitude=ratio,
                    switch=sw,
                    time=time,
                )
            )
        for f in through:
            vm_alerts[f.vm] = max(vm_alerts.get(f.vm, 0.0), ratio)
    return alerts, vm_alerts
