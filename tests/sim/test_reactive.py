"""Demand-driven workload and reactive manager tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.sim.reactive import DemandDrivenWorkload, ReactiveManager
from repro.topology import build_fattree
from repro.traces.workload import WorkloadStream


@pytest.fixture
def env():
    cluster = build_cluster(
        build_fattree(4), hosts_per_rack=2, fill_fraction=0.5, seed=60,
        delay_sensitive_fraction=0.0,
    )
    streams = {
        vm: WorkloadStream.generate(100, base_level=0.4, seed=vm)
        for vm in range(cluster.num_vms)
    }
    return cluster, DemandDrivenWorkload(cluster, streams)


class TestDemandDriven:
    def test_host_load_in_unit_interval(self, env):
        cluster, wl = env
        load = wl.host_load(10)
        assert load.shape == (cluster.num_hosts,)
        assert (load >= 0).all() and (load <= 1.0 + 1e-9).all()

    def test_negative_round_is_refused(self, env):
        """Round -1 used to read the trace's final row, through the
        stacked matrix and through each stream's ``at`` alike."""
        cluster, wl = env
        streams = dict(wl.streams)
        streams[0] = WorkloadStream.generate(120, seed=0)  # unequal lengths: no matrix
        for workload in (wl, DemandDrivenWorkload(cluster, streams)):
            for read in (
                workload.vm_utilization,
                workload.host_load,
                ReactiveManager(workload).alerts_at,
            ):
                with pytest.raises(ConfigurationError, match="round must be >= 0"):
                    read(-1)

    def test_load_follows_demand(self, env):
        cluster, wl = env
        pl = cluster.placement
        # overwrite one host's VMs with a saturated stream
        host = 0
        streams = dict(wl.streams)
        for vm in pl.vms_on_host(host):
            streams[int(vm)] = WorkloadStream(profile=np.ones((100, 4)) * 0.99)
        load = DemandDrivenWorkload(cluster, streams).host_load(50)
        expected = 0.99 * pl.host_used[host] / pl.host_capacity[host]
        assert load[host] == pytest.approx(expected, rel=1e-6)

    def test_overloaded_hosts_detection(self, env):
        cluster, wl = env
        pl = cluster.placement
        host = 1
        streams = dict(wl.streams)
        for vm in pl.vms_on_host(host):
            streams[int(vm)] = WorkloadStream(profile=np.ones((100, 4)))
        wl = DemandDrivenWorkload(cluster, streams)
        thr = 0.9 * pl.host_used[host] / pl.host_capacity[host]
        if thr <= 0:
            pytest.skip("empty host in fixture")
        hot = wl.overloaded_hosts(10, min(thr, 0.99))
        assert host in hot

    def test_migration_cools_host(self, env):
        cluster, wl = env
        pl = cluster.placement
        host = 0
        vms = pl.vms_on_host(host)
        if vms.size == 0:
            pytest.skip("empty host")
        before = wl.host_load(5)[host]
        # move the largest VM elsewhere
        vm = int(vms[np.argmax(pl.vm_capacity[vms])])
        for dst in range(pl.num_hosts):
            if dst != host and pl.free_capacity(dst) >= int(pl.vm_capacity[vm]):
                pl.migrate(vm, dst)
                break
        after = wl.host_load(5)[host]
        assert after < before

    def test_streams_are_read_only(self, env):
        """The utilization cache is built once, so the streams cannot change."""
        _, wl = env
        hot = WorkloadStream(profile=np.full((100, 4), 0.7))
        with pytest.raises(TypeError):
            wl.streams[1] = hot
        with pytest.raises(AttributeError):  # a mappingproxy has no update
            wl.streams.update({1: hot})
        with pytest.raises(TypeError):
            del wl.streams[2]
        assert 2 in wl.streams

    def test_missing_stream_rejected(self):
        cluster = build_cluster(build_fattree(4), seed=61)
        with pytest.raises(ConfigurationError):
            DemandDrivenWorkload(cluster, {0: WorkloadStream.generate(10, seed=0)})


class TestReactiveManager:
    def test_alerts_only_when_overloaded(self, env):
        cluster, wl = env
        mgr = ReactiveManager(wl, threshold=0.999)
        alerts, vma = mgr.alerts_at(10)
        assert alerts == []

    def test_alert_shape_matches_scenario_contract(self, env):
        cluster, wl = env
        pl = cluster.placement
        host = 0
        streams = dict(wl.streams)
        for vm in pl.vms_on_host(host):
            streams[int(vm)] = WorkloadStream(profile=np.ones((100, 4)))
        wl = DemandDrivenWorkload(cluster, streams)
        load = wl.host_load(10)[host]
        mgr = ReactiveManager(wl, threshold=min(0.99, max(0.05, load * 0.9)))
        alerts, vma = mgr.alerts_at(10)
        hosts = {a.host for a in alerts}
        assert host in hosts
        for a in alerts:
            assert a.rack == int(pl.host_rack[a.host])
        for vm in vma:
            assert not pl.vm_delay_sensitive[vm]

    def test_threshold_validation(self, env):
        _, wl = env
        with pytest.raises(ConfigurationError):
            ReactiveManager(wl, threshold=0.0)
