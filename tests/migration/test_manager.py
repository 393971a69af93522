"""ShimManager (Alg. 1) dispatch tests."""

import numpy as np
import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.migration import manager
from repro.migration.manager import ShimManager
from repro.migration.request import ReceiverRegistry
from repro.migration.reroute import FlowTable
from repro.obs.metrics import MetricsRegistry
from repro.topology import build_fattree


@pytest.fixture
def env():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.4,
        seed=33,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    cm = CostModel(cluster)
    reg = ReceiverRegistry(cluster)
    return cluster, cm, reg


def server_alert(cluster, rack, host=None):
    pl = cluster.placement
    if host is None:
        host = int(pl.hosts_in_rack(rack)[0])
    return Alert(kind=AlertKind.SERVER, rack=rack, magnitude=0.95, host=host)


class TestServerAlerts:
    def test_one_vm_per_host_alert(self, env):
        cluster, cm, reg = env
        pl = cluster.placement
        mgr = ShimManager(cluster, cm, 0)
        host = int(pl.hosts_in_rack(0)[0])
        vms = pl.vms_on_host(host)
        vm_alerts = {int(v): 0.95 for v in vms}
        report = mgr.process_round([server_alert(cluster, 0, host)], vm_alerts, reg)
        assert len(report.selected_for_migration) == 1
        assert report.selected_for_migration[0] in vms
        assert report.migration.acked == 1

    def test_highest_alert_vm_chosen(self, env):
        cluster, cm, reg = env
        pl = cluster.placement
        mgr = ShimManager(cluster, cm, 0)
        host = int(pl.hosts_in_rack(0)[0])
        vms = [int(v) for v in pl.vms_on_host(host)]
        if len(vms) < 2:
            pytest.skip("need two VMs on the host")
        vm_alerts = {v: 0.91 for v in vms}
        vm_alerts[vms[1]] = 0.99
        report = mgr.process_round([server_alert(cluster, 0, host)], vm_alerts, reg)
        assert report.selected_for_migration == [vms[1]]

    def test_two_host_alerts_two_migrations(self, env):
        cluster, cm, reg = env
        pl = cluster.placement
        mgr = ShimManager(cluster, cm, 0)
        hosts = pl.hosts_in_rack(0)[:2]
        alerts = [server_alert(cluster, 0, int(h)) for h in hosts]
        vm_alerts = {int(v): 0.95 for h in hosts for v in pl.vms_on_host(int(h))}
        report = mgr.process_round(alerts, vm_alerts, reg)
        assert len(report.selected_for_migration) == 2


class TestToRAlerts:
    def test_beta_selection_over_whole_rack(self, env, monkeypatch):
        monkeypatch.setattr(manager, "BETA", 0.2)
        cluster, cm, reg = env
        pl = cluster.placement
        mgr = ShimManager(cluster, cm, 1)
        alert = Alert(kind=AlertKind.LOCAL_TOR, rack=1, magnitude=0.95)
        vm_alerts = {int(v): 0.92 for v in pl.vms_in_rack(1)}
        report = mgr.process_round([alert], vm_alerts, reg)
        budget = int(0.2 * cluster.tor_capacity(1))
        moved_cap = sum(int(pl.vm_capacity[v]) for v in report.selected_for_migration)
        assert 0 < moved_cap <= budget

    def test_multiple_tor_alerts_collapse(self, env):
        cluster, cm, reg = env
        pl = cluster.placement
        mgr = ShimManager(cluster, cm, 1)
        alerts = [
            Alert(kind=AlertKind.LOCAL_TOR, rack=1, magnitude=0.95),
            Alert(kind=AlertKind.LOCAL_TOR, rack=1, magnitude=0.97),
        ]
        vm_alerts = {int(v): 0.92 for v in pl.vms_in_rack(1)}
        r = mgr.process_round(alerts, vm_alerts, reg)
        # aggregated once, not per alert: selection within a single budget
        budget = int(manager.BETA * cluster.tor_capacity(1))
        moved_cap = sum(int(pl.vm_capacity[v]) for v in r.selected_for_migration)
        assert moved_cap <= budget


class TestOuterSwitchAlerts:
    def test_reroute_without_flow_table_is_noop(self, env):
        cluster, cm, reg = env
        mgr = ShimManager(cluster, cm, 0)
        sw = int(cluster.topology.switches()[0])
        alert = Alert(kind=AlertKind.OUTER_SWITCH, rack=0, magnitude=0.95, switch=sw)
        report = mgr.process_round([alert], {}, reg)
        assert report.rerouted_flows == 0
        assert report.alerts_processed == 1

    def test_reroute_moves_flows_off_hot_switch(self, env):
        cluster, cm, reg = env
        ft = FlowTable(cluster.topology)
        pl = cluster.placement
        vms0 = pl.vms_in_rack(0)
        fid = ft.add_flow(int(vms0[0]), 0, 2, rate=1.0)
        path = ft.flows[fid].path
        hot = next(p for p in path if p >= cluster.num_racks)
        mgr = ShimManager(cluster, cm, 0, flow_table=ft)
        alert = Alert(kind=AlertKind.OUTER_SWITCH, rack=0, magnitude=0.95, switch=hot)
        report = mgr.process_round([alert], {int(vms0[0]): 0.95}, reg)
        assert report.rerouted_flows == 1
        assert hot not in ft.flows[fid].path


class TestHeldInstruments:
    def test_looked_up_on_first_use_and_kept(self, env):
        cluster, cm, reg = env
        pl = cluster.placement
        metrics = MetricsRegistry()
        mgr = ShimManager(cluster, cm, 0, metrics=metrics)
        assert metrics.as_dict() == {}  # a shim that saw nothing shows nothing
        sw = int(cluster.topology.switches()[0])
        quiet = Alert(kind=AlertKind.OUTER_SWITCH, rack=0, magnitude=0.9, switch=sw)
        mgr.process_round([quiet], {}, reg)
        # alerts but no migration set: no zero-valued REQUEST series yet
        assert metrics.as_dict() == {"sheriff_shim_alerts_total{rack=0}": 1.0}
        host = int(pl.hosts_in_rack(0)[0])
        vm_alerts = {int(v): 0.95 for v in pl.vms_on_host(host)}
        mgr.process_round([server_alert(cluster, 0, host)], vm_alerts, reg)
        after = metrics.as_dict()
        assert after["sheriff_shim_alerts_total{rack=0}"] == 2.0
        assert after["sheriff_requests_acked_total{rack=0}"] == 1.0
        assert after["sheriff_requests_rejected_total{rack=0}"] == 0.0
        # kept: a lookup returns the registry's own instrument, not a copy
        counter = metrics.counter("sheriff_shim_alerts_total", rack=0)
        assert counter is metrics.counter("sheriff_shim_alerts_total", rack=0)
        assert counter.value == 2.0


class TestValidation:
    def test_misrouted_alert_raises(self, env):
        cluster, cm, reg = env
        mgr = ShimManager(cluster, cm, 0)
        with pytest.raises(ConfigurationError):
            mgr.process_round([server_alert(cluster, 1)], {}, reg)

    def test_server_alert_for_another_racks_host_raises(self, env):
        # a shim reads Eq. (1) at its own region's width: a host it does
        # not dominate must be refused, not planned against the wrong racks
        cluster, cm, reg = env
        foreign = int(cluster.placement.hosts_in_rack(1)[0])
        with pytest.raises(ConfigurationError, match="outside rack 0"):
            ShimManager(cluster, cm, 0).process_round(
                [server_alert(cluster, 0, host=foreign)], {foreign: 1.0}, reg
            )

    def test_bad_alpha_beta(self, env):
        cluster, cm, _ = env
        with pytest.raises(ConfigurationError):
            ShimManager(cluster, cm, 0, alpha=0.0)
