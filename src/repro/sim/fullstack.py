"""Full-stack closed loop: demand drives traffic drives alerts.

The component experiments exercise Alg. 1's cases separately; this
wrapper runs them *together*, the way a real deployment would:

1. per-VM demand streams evolve (``DemandDrivenWorkload``);
2. each inter-rack dependency carries a flow whose rate follows its
   source VM's TRF component — hot VMs push hot traffic;
3. switch load emerges from the flows; hot switches raise OUTER_SWITCH
   alerts (→ FLOWREROUTE), predicted host overload raises SERVER alerts
   (→ VMMIGRATION), in the same round;
4. migrations re-home their VMs' flows, closing the loop.

The loop's flow table is the embedded engine's ``sim.flow_table``, so
Alg. 1's FLOWREROUTE, a ``SWITCH_FAIL`` repair and a ``HOST_CRASH``
withdrawal all act on the flows the loop re-syncs each round.  The table
also holds the failed switches, so neither a re-synced flow nor a
FLOWREROUTE detour returns to a dead one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.alerts.alert import Alert, AlertKind
from repro.alerts.qcn import SwitchQueue, ToRUplinkMonitor
from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceKind
from repro.config import SheriffConfig
from repro.errors import ConfigurationError, TopologyError
from repro.migration.reroute import FlowTable
from repro.sim.congestion import congestion_alerts
from repro.sim.engine import SheriffSimulation
from repro.sim.latency import latency_percentiles
from repro.sim.reactive import DemandDrivenWorkload, PredictiveManager

__all__ = ["FullStackRound", "FullStackSimulation"]


@dataclass
class FullStackRound:
    """Everything one closed-loop round produced."""

    round_index: int
    server_alerts: int
    switch_alerts: int
    tor_alerts: int
    migrations: int
    rerouted_flows: int
    overloaded_hosts: int
    peak_switch_util: float
    p99_latency: Optional[float]


class FullStackSimulation:
    """Closed-loop Sheriff over demand, flows and both alert paths.

    Parameters
    ----------
    cluster, workload:
        Shared state; every VM needs a stream.
    base_rate:
        Flow rate of a dependency at TRF = 1; actual per-round rate is
        ``base_rate × TRF(src VM)``, floored at ``0.05 × base_rate`` so
        idle dependencies still exist on the fabric.
    host_threshold, switch_threshold:
        Overload lines for host load (forecast three rounds ahead) and
        switch utilization.
    tor_queue_threshold:
        Predicted normalized ToR uplink queue occupancy that raises the
        LOCAL_TOR alert (Alg. 1's third case, Sec. III-B: the shim
        "monitors the uplink flow rate of its local ToR proactively").
    ecmp:
        Spread dependency flows across equal-cost paths.
    config:
        Optional :class:`~repro.config.SheriffConfig` for the embedded
        :class:`~repro.sim.engine.SheriffSimulation` (tracer/metrics
        handles and a fault schedule included); ``with_flows`` is ignored
        because the closed loop installs its own flow table in the
        engine.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: DemandDrivenWorkload,
        *,
        base_rate: float = 1.0,
        host_threshold: float = 0.6,
        switch_threshold: float = 0.7,
        tor_queue_threshold: float = 0.8,
        ecmp: bool = True,
        config: Optional[SheriffConfig] = None,
    ) -> None:
        if base_rate <= 0:
            raise ConfigurationError(f"base_rate must be positive, got {base_rate}")
        self.cluster = cluster
        self.workload = workload
        self.base_rate = base_rate
        self.switch_threshold = switch_threshold
        if config is not None and config.with_flows:
            # the closed loop builds its own demand-driven flows
            config = config.replace(with_flows=False)
        self.sim = SheriffSimulation(cluster, config)
        self.sim.flow_table = FlowTable(cluster.topology, ecmp=ecmp)
        self.manager = PredictiveManager(workload, threshold=host_threshold, horizon=3)
        self._dep_flows: Dict[Tuple[int, int], int] = {}
        # per-rack predictive uplink queue monitors (Alg. 1 case 2)
        lt = cluster.topology.links
        self.tor_monitors: Dict[int, ToRUplinkMonitor] = {}
        for rack in range(cluster.num_racks):
            touches = (lt.u == rack) | (lt.v == rack)
            uplink = float(lt.capacity[touches].sum())
            queue = SwitchQueue(service_rate=max(uplink, 1e-6), buffer_size=10.0 * max(uplink, 1e-6))
            self.tor_monitors[rack] = ToRUplinkMonitor(queue, tor_queue_threshold)
        self.history: List[FullStackRound] = []

    @property
    def flow_table(self) -> FlowTable:
        """The engine's flow table: the one the shim reroutes and the
        fault layer repairs."""
        return self.sim.flow_table

    # ------------------------------------------------------------------ #
    def sync_flows(self, t: int) -> None:
        """(Re)build dependency flows with demand-driven rates.

        Flows follow their source VM's current rack (migrations re-home
        them) and scale with its TRF demand this round.  A pair with an
        endpoint lost in a host crash, or whose racks failed switches cut
        apart, has no flow until the VM or a switch is back.
        """
        pl = self.cluster.placement
        deps = self.cluster.dependencies
        racks = pl.host_rack[pl.vm_host]
        trf = np.empty(self.cluster.num_vms)
        for vm in range(self.cluster.num_vms):
            trf[vm] = float(
                self.workload.streams[vm].at(t)[int(ResourceKind.TRF)]
            )
        wanted: Dict[Tuple[int, int], Tuple[int, int, float]] = {}
        pairs = deps.pairs()
        if pairs.shape[0]:
            ra_all = racks[pairs[:, 0]]
            rb_all = racks[pairs[:, 1]]
            rates = self.base_rate * np.maximum(trf[pairs[:, 0]], 0.05)
            inter = ra_all != rb_all
            if pl.lost_vms:
                lost = np.fromiter(pl.lost_vms, np.int64, len(pl.lost_vms))
                inter &= ~np.isin(pairs, lost).any(axis=1)
            # pairs() is lexicographic, matching the old nested-loop order,
            # so flow ids assigned below are unchanged
            for k in np.nonzero(inter)[0]:
                wanted[(int(pairs[k, 0]), int(pairs[k, 1]))] = (
                    int(ra_all[k]),
                    int(rb_all[k]),
                    float(rates[k]),
                )
        # drop stale flows (pair gone intra-rack or endpoints moved)
        for pair in list(self._dep_flows):
            fid = self._dep_flows[pair]
            flow = self.flow_table.flows.get(fid)
            spec = wanted.get(pair)
            if flow is None or spec is None or (flow.src_rack, flow.dst_rack) != spec[:2]:
                if flow is not None:
                    self.flow_table.remove_flow(fid)
                del self._dep_flows[pair]
        # add/update
        for pair, (ra, rb, rate) in wanted.items():
            fid = self._dep_flows.get(pair)
            if fid is None:
                try:
                    self._dep_flows[pair] = self.flow_table.add_flow(
                        pair[0], ra, rb, rate
                    )
                except TopologyError:
                    pass  # no surviving path between the racks
            else:
                flow = self.flow_table.flows[fid]
                if abs(flow.rate - rate) > 1e-12:
                    # rate change: re-account load along the existing path
                    self.flow_table._apply_load(flow.path, rate - flow.rate)
                    flow.rate = rate

    def run_round(self, t: int) -> FullStackRound:
        """Advance the closed loop by one management round at time *t*."""
        self.sync_flows(t)
        host_load = self.workload.host_load(t)
        server_alerts, vm_alerts = self.manager.alerts_at(t)
        switch_alerts, flow_vm_alerts = congestion_alerts(
            self.cluster,
            self.flow_table,
            utilization_threshold=self.switch_threshold,
            time=t,
        )
        # LOCAL_TOR path: feed each rack's uplink queue with this round's
        # originating flow load and alert on the *predicted* occupancy
        tor_alerts: List[Alert] = []
        tor_vm_alerts: Dict[int, float] = {}
        pl = self.cluster.placement
        for rack, mon in self.tor_monitors.items():
            # a rack whose flows are all gone keeps the float residue of
            # their removal, which can sit a hair below zero
            mon.record(max(0.0, float(self.flow_table.node_load[rack])))
            mag = mon.alert_value()
            if mag > 0.0:
                tor_alerts.append(
                    Alert(
                        kind=AlertKind.LOCAL_TOR,
                        rack=rack,
                        magnitude=mag,
                        time=t,
                    )
                )
                for vm in pl.vms_in_rack(rack):
                    if not pl.vm_delay_sensitive[vm]:
                        trf = float(
                            self.workload.streams[int(vm)].at(t)[int(ResourceKind.TRF)]
                        )
                        tor_vm_alerts[int(vm)] = max(
                            tor_vm_alerts.get(int(vm), 0.0), trf
                        )
        merged = dict(flow_vm_alerts)
        merged.update(tor_vm_alerts)
        merged.update(vm_alerts)
        summary = self.sim.run_round(
            list(server_alerts) + list(switch_alerts) + tor_alerts,
            merged,
            host_load=host_load,
        )
        self.manager.observe(t)
        try:
            p99 = latency_percentiles(self.cluster.topology, self.flow_table)["p99"]
        except ConfigurationError:
            p99 = None
        from repro.sim.congestion import switch_capacity

        cap = switch_capacity(self.cluster.topology)
        sw = self.cluster.topology.switches()
        peak = float(np.max(self.flow_table.node_load[sw] / cap[sw])) if sw.size else 0.0
        record = FullStackRound(
            round_index=len(self.history),
            server_alerts=len(server_alerts),
            switch_alerts=len(switch_alerts),
            tor_alerts=len(tor_alerts),
            migrations=summary.migrations,
            rerouted_flows=int(summary.reports.rerouted_flows.sum()),
            overloaded_hosts=int(
                (host_load > self.manager.threshold).sum()
            ),
            peak_switch_util=peak,
            p99_latency=p99,
        )
        self.history.append(record)
        return record

    def run(self, start: int, end: int) -> List[FullStackRound]:
        """Run rounds ``start..end-1`` (warm the predictor on 0..start-1)."""
        if not (0 <= start < end):
            raise ConfigurationError(f"need 0 <= start < end, got {start}/{end}")
        for t in range(start):
            self.manager.observe(t)
        return [self.run_round(t) for t in range(start, end)]
