"""Shim-layer view of a delegation region.

The shim (Sec. II-B) is the per-rack management agent.  Its *dominating
region* is its own rack; its *migration horizon* is the set of one-hop
wired neighbor racks — racks reachable through a single intermediate
switch, which is exactly the regional scope the paper's conclusion states
("dominate its local region by one hop wired neighbors").

:class:`ShimView` is a read-mostly helper over the shared region indexes
(:meth:`repro.topology.base.Topology.rack_regions` — one sparse product
per fabric, not one adjacency walk per shim — and
:meth:`repro.cluster.cluster.Cluster.region_hosts`, its hosts): the
neighbor-rack set and the static destination arrays the distributed
manager (Alg. 1) needs each round, as rows of those tables.
"""

from __future__ import annotations

from typing import FrozenSet, Set

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import TopologyError
from repro.topology.base import Topology

__all__ = ["ShimView", "neighbor_racks"]


def neighbor_racks(topology: Topology, rack: int) -> FrozenSet[int]:
    """Racks sharing at least one switch with *rack* (excluding itself).

    In Fat-Tree this is the rest of the pod; in BCube it is every rack that
    shares a level-1+ switch.  This is the candidate destination set of the
    regional VMMIGRATION.  The scalar definition of what
    :meth:`Topology.rack_regions` computes for every rack at once.
    """
    if not (0 <= rack < topology.num_racks):
        raise TopologyError(f"rack {rack} out of range 0..{topology.num_racks - 1}")
    out: Set[int] = set()
    for sw in topology.neighbors(rack):
        if sw < topology.num_racks:
            # direct rack-rack link (possible in server-centric fabrics)
            out.add(int(sw))
            continue
        for other in topology.neighbors(int(sw)):
            if other < topology.num_racks:
                out.add(int(other))
    out.discard(rack)
    return frozenset(out)


class ShimView:
    """Per-rack management viewpoint bound to a cluster.

    What it holds depends on the fabric and ``host_rack`` alone — both
    immutable for the lifetime of a cluster (a dying host loses capacity,
    not rack membership) — so a view outlives migrations, crashes and
    ``SWITCH_FAIL`` cost-model swaps.

    Parameters
    ----------
    cluster:
        The shared cluster state.
    rack:
        The delegation node this shim runs on.
    """

    def __init__(self, cluster: Cluster, rack: int) -> None:
        if not (0 <= rack < cluster.num_racks):
            raise TopologyError(f"rack {rack} out of range 0..{cluster.num_racks - 1}")
        self.cluster = cluster
        self.rack = rack
        table, widths = cluster.topology.rack_regions()
        region = table[rack, : widths[rack]]
        self.neighbors: FrozenSet[int] = frozenset(region.tolist())
        hosts, cols, reach = cluster.region_hosts()
        self._candidate_hosts = hosts[rack, : reach[rack]]
        self._candidate_cols = cols[rack, : reach[rack]]

    @property
    def region(self) -> FrozenSet[int]:
        """Own rack plus migration-horizon racks (``N_r ∪ {v_i}``)."""
        return self.neighbors | {self.rack}

    def candidate_hosts(self) -> np.ndarray:
        """Hosts in neighbor racks — possible migration destinations.

        Ascending and duplicate-free.  Callers treat the returned array
        as read-only.
        """
        return self._candidate_hosts

    def candidate_cols(self) -> np.ndarray:
        """Column of each candidate host's rack in this rack's region.

        ``rack_regions()[0][rack, candidate_cols()]`` are the racks of
        :meth:`candidate_hosts`, element for element: where
        :meth:`repro.costs.model.CostModel.cost_rows` reads a regional
        row.  Static and read-only, like the hosts.
        """
        return self._candidate_cols
