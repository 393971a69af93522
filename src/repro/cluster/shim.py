"""A shim's delegation region, defined one rack at a time.

The shim (Sec. II-B) is the per-rack management agent.  Its *dominating
region* is its own rack; its *migration horizon* is the set of one-hop
wired neighbor racks — racks reachable through a single intermediate
switch, which is exactly the regional scope the paper's conclusion states
("dominate its local region by one hop wired neighbors").

:func:`neighbor_racks` is that definition for one rack.  Planning reads
every rack's region from the shared tables instead:
:meth:`repro.topology.base.Topology.rack_regions` (one sparse product per
fabric, not one adjacency walk per shim) and
:meth:`repro.cluster.cluster.Cluster.region_hosts`, its hosts.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from repro.errors import TopologyError
from repro.topology.base import Topology

__all__ = ["neighbor_racks"]


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
