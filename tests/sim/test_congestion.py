"""Switch congestion scenario + end-to-end reroute tests."""

import numpy as np
import pytest

from repro.alerts.alert import AlertKind
from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.migration.reroute import FlowTable
from repro.sim import SheriffSimulation, congestion_alerts, hot_switches, switch_capacity
from repro.topology import build_fattree


@pytest.fixture
def env():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        seed=70,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    ft = FlowTable(cluster.topology)
    return cluster, ft


def saturate_one_switch(cluster, ft, rate=2.0):
    """Route flows 0->1 until some agg switch crosses 70% utilization."""
    pl = cluster.placement
    vms = pl.vms_in_rack(0)
    cap = switch_capacity(cluster.topology)
    fids = []
    for vm in vms:
        fid = ft.add_flow(int(vm), 0, 1, rate)
        fids.append(fid)
        hs = hot_switches(cluster.topology, ft, 0.7)
        if hs:
            return fids, hs
    raise AssertionError("could not saturate a switch in the fixture")


class TestSwitchCapacity:
    def test_fattree_capacities(self):
        topo = build_fattree(4)
        cap = switch_capacity(topo)
        # ToR: 2 uplinks x 1.0; agg: 2 down x 1.0 + 2 up x 10.0; core: 4 x 10.0
        assert cap[0] == pytest.approx(2.0)
        agg = topo.nodes_of_kind(__import__("repro.topology.base", fromlist=["NodeKind"]).NodeKind.AGG)
        assert cap[agg[0]] == pytest.approx(22.0)


class TestHotSwitches:
    def test_no_flows_no_hot(self, env):
        cluster, ft = env
        assert hot_switches(cluster.topology, ft) == []

    def test_saturation_detected(self, env):
        cluster, ft = env
        _, hs = saturate_one_switch(cluster, ft)
        assert len(hs) >= 1

    def test_threshold_validation(self, env):
        cluster, ft = env
        with pytest.raises(ConfigurationError):
            hot_switches(cluster.topology, ft, 0.0)


class TestCongestionAlerts:
    def test_alert_addressing(self, env):
        cluster, ft = env
        _, hs = saturate_one_switch(cluster, ft)
        alerts, vma = congestion_alerts(cluster, ft)
        assert alerts, "expected alerts for the hot switch"
        for a in alerts:
            assert a.kind is AlertKind.OUTER_SWITCH
            assert a.switch in hs
            # addressed to a rack that actually originates flows through it
            assert any(
                f.src_rack == a.rack for f in ft.flows_through(a.switch)
            )
        assert vma  # the flows' VMs carry selection magnitudes

    def test_end_to_end_reroute_cools_switch(self, env):
        cluster, ft = env
        fids, hs = saturate_one_switch(cluster, ft)
        sim = SheriffSimulation(cluster)
        sim.flow_table = ft  # the shared flow table the shim reroutes
        hot_before = {sw: ft.load_of(sw) for sw in hs}
        alerts, vma = congestion_alerts(cluster, ft)
        summary = sim.run_round(alerts, vma)
        rerouted = sum(r.rerouted_flows for r in summary.reports)
        assert rerouted > 0
        for sw in hs:
            assert ft.load_of(sw) < hot_before[sw]

    def test_alert_free_after_reroute(self, env):
        cluster, ft = env
        saturate_one_switch(cluster, ft, rate=2.0)
        sim = SheriffSimulation(cluster)
        sim.flow_table = ft
        # a few reroute rounds should clear (or at least not grow) the hot set
        n0 = len(hot_switches(cluster.topology, ft))
        for t in range(3):
            alerts, vma = congestion_alerts(cluster, ft, time=t)
            if not alerts:
                break
            sim.run_round(alerts, vma)
        assert len(hot_switches(cluster.topology, ft)) <= n0
