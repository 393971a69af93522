"""Switch failure injection and recovery.

The paper scopes crash errors out ("we assume that they could be resolved
by backup system") — this module *is* that backup path, so the robustness
claim can actually be exercised: when a switch dies,

1. every flow traversing it is rerouted on the surviving fabric (flows
   with no alternative are dropped and reported);
2. the migration cost model is rebuilt with the dead switch's links
   removed, so subsequent VMMIGRATION plans route around it;
3. rack-level connectivity is re-checked — a partitioned fabric is
   reported rather than silently mis-planned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel, CostParams
from repro.errors import TopologyError
from repro.migration.reroute import FlowTable, flow_reroute
from repro.topology.base import Topology

__all__ = ["FailureReport", "FailureInjector"]


@dataclass
class FailureReport:
    """Outcome of one failure or recovery event."""

    switch: int
    flows_rerouted: int = 0
    flows_dropped: List[int] = field(default_factory=list)
    flows_readmitted: List[int] = field(default_factory=list)
    racks_disconnected: List[int] = field(default_factory=list)


class FailureInjector:
    """Tracks failed switches and keeps dependent state consistent.

    Parameters
    ----------
    cluster:
        The cluster whose fabric suffers the failures.
    flow_table:
        Optional shared flow registry to repair on failure.
    cost_params:
        Parameters for rebuilding the cost model.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        flow_table: Optional[FlowTable] = None,
        cost_params: Optional[CostParams] = None,
    ) -> None:
        self.cluster = cluster
        self.flow_table = flow_table
        self.cost_params = cost_params or CostParams()
        self.failed: Set[int] = set()
        # (vm, src_rack, dst_rack, rate) of flows dropped for want of a
        # path; re-admission candidates for recover()
        self._dropped: List[Tuple[int, int, int, float]] = []

    # ------------------------------------------------------------------ #
    def _affected_edges(self) -> np.ndarray:
        """Boolean mask over links: touches any failed switch."""
        lt = self.cluster.topology.links
        mask = np.zeros(len(lt), dtype=bool)
        for sw in self.failed:
            mask |= (lt.u == sw) | (lt.v == sw)
        return mask

    def available_bandwidth(self) -> np.ndarray:
        """Per-link bandwidth with failed switches' links at zero."""
        lt = self.cluster.topology.links
        bw = lt.capacity.copy()
        bw[self._affected_edges()] = 0.0
        return bw

    def fail(self, switch: int) -> FailureReport:
        """Kill *switch*; repair flows; report consequences."""
        topo = self.cluster.topology
        if not (topo.num_racks <= switch < topo.num_nodes):
            raise TopologyError(
                f"{switch} is not a switch node "
                f"(switches are {topo.num_racks}..{topo.num_nodes - 1})"
            )
        if switch in self.failed:
            raise TopologyError(f"switch {switch} already failed")
        self.failed.add(switch)
        report = FailureReport(switch=switch)

        if self.flow_table is not None:
            through = [
                f.flow_id for f in self.flow_table.flows_through(switch)
            ]
            ok, failed_flows = flow_reroute(
                self.flow_table, through, set(self.failed)
            )
            report.flows_rerouted = ok
            if failed_flows:
                # no surviving path: drop the flows that still cross a
                # failed switch (they cannot be carried)
                for fid in through:
                    flow = self.flow_table.flows.get(fid)
                    if flow is not None and any(
                        n in self.failed for n in flow.path
                    ):
                        self._dropped.append(
                            (flow.vm, flow.src_rack, flow.dst_rack, flow.rate)
                        )
                        self.flow_table.remove_flow(fid)
                        report.flows_dropped.append(fid)

        report.racks_disconnected = self.disconnected_racks()
        return report

    def recover(self, switch: int) -> FailureReport:
        """Bring *switch* back; re-admit what the outage dropped.

        Flows dropped by :meth:`fail` for want of a surviving path are
        re-registered and routed on the restored fabric; a flow whose path
        would still cross a *different* failed switch is rerouted around
        it, and dropped again (kept for the next recovery) if no detour
        exists.  Surviving flows re-optimize lazily on the next reroute.
        Returns a report with ``flows_readmitted`` and the remaining
        partition state; the caller rebuilds the cost model (see
        :meth:`rebuild_cost_model`) exactly as it does after :meth:`fail`.
        """
        if switch not in self.failed:
            raise TopologyError(f"switch {switch} is not failed")
        self.failed.discard(switch)
        report = FailureReport(switch=switch)

        if self.flow_table is not None and self._dropped:
            fids = self.flow_table.add_flows(self._dropped, frozenset(self.failed))
            report.flows_readmitted = [fid for fid in fids if fid is not None]
            self._dropped = [
                spec for spec, fid in zip(self._dropped, fids) if fid is None
            ]

        report.racks_disconnected = self.disconnected_racks()
        return report

    # ------------------------------------------------------------------ #
    def disconnected_racks(self) -> List[int]:
        """Racks with no surviving path to rack 0 (or to any other rack)."""
        topo = self.cluster.topology
        n = topo.num_nodes
        alive = np.ones(n, dtype=bool)
        alive[list(self.failed)] = False
        # BFS over surviving nodes from the first alive rack
        start = next((r for r in range(topo.num_racks) if alive[r]), None)
        if start is None:
            return list(range(topo.num_racks))
        seen = np.zeros(n, dtype=bool)
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in topo.neighbors(u):
                if alive[v] and not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return [r for r in range(topo.num_racks) if not seen[r]]

    def rebuild_cost_model(self) -> CostModel:
        """Cost model over the surviving fabric.

        Raises :class:`TopologyError` when the failures partitioned the
        rack fabric — planning over a partition would silently produce
        infinite costs.
        """
        dead = self.disconnected_racks()
        if dead:
            raise TopologyError(
                f"fabric partitioned: racks {dead[:5]} unreachable; "
                "recover a switch before re-planning"
            )
        return CostModel(
            self.cluster,
            self.cost_params,
            available_bandwidth=self.available_bandwidth(),
        )
