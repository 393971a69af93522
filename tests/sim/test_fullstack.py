"""Full-stack closed-loop tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.sim import FullStackSimulation, flash_crowd
from repro.sim.reactive import DemandDrivenWorkload
from repro.topology import build_fattree
from repro.traces.workload import generate_streams


def steady_demand(cluster, horizon, *, base_level=0.45, seed=None):
    """A stationary fleet: a diurnal base per VM, no scheduled events."""
    streams = generate_streams(
        cluster.num_vms,
        horizon,
        base_level=base_level,
        diurnal_amplitude=0.08,
        wander_sigma=0.005,
        burst_rate=0.0,
        seed=seed,
    )
    return DemandDrivenWorkload(cluster, dict(enumerate(streams)))


def make_cluster(seed=3):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        fill_fraction=0.55,
        seed=seed,
        dependency_degree=2.0,
        delay_sensitive_fraction=0.0,
    )


class TestQuietFleet:
    def test_no_alerts_no_actions(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 80, base_level=0.3, seed=5)
        fs = FullStackSimulation(
            cluster, wl, host_threshold=0.9, switch_threshold=0.9, base_rate=0.01
        )
        rows = fs.run(30, 60)
        assert all(r.server_alerts == 0 for r in rows)
        assert all(r.switch_alerts == 0 for r in rows)
        assert all(r.migrations == 0 for r in rows)
        cluster.placement.check_invariants()

    def test_flows_track_dependencies(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 40, seed=6)
        fs = FullStackSimulation(cluster, wl, base_rate=0.02)
        fs.run(10, 12)
        # one flow per inter-rack dependency pair
        pl = cluster.placement
        racks = pl.host_rack[pl.vm_host]
        inter = sum(
            1
            for a in range(cluster.num_vms)
            for b in cluster.dependencies.neighbors(a)
            if b > a and racks[a] != racks[b]
        )
        assert len(fs.flow_table.flows) == inter

    def test_rates_follow_trf(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 40, seed=7)
        fs = FullStackSimulation(cluster, wl, base_rate=1.0)
        fs.run(10, 11)
        from repro.cluster.resources import ResourceKind

        t = 10
        for flow in fs.flow_table.flows.values():
            trf = float(wl.streams[flow.vm].at(t)[int(ResourceKind.TRF)])
            assert flow.rate == pytest.approx(max(trf, 0.05), rel=1e-9)


class TestSurge:
    def test_both_alert_paths_fire_and_act(self):
        cluster = make_cluster()
        wl = flash_crowd(cluster, 110, rack=1, start=55, peak=0.9, seed=8)
        fs = FullStackSimulation(
            cluster,
            wl,
            host_threshold=0.45,
            switch_threshold=0.4,
            base_rate=1.0,
        )
        pre = fs.run(30, 50)
        assert all(r.server_alerts == 0 for r in pre)
        surge = [fs.run_round(t) for t in range(50, 90)]
        assert any(r.server_alerts > 0 for r in surge)
        assert any(r.switch_alerts > 0 for r in surge)
        assert sum(r.migrations for r in surge) >= 1
        assert sum(r.rerouted_flows for r in surge) >= 1
        cluster.placement.check_invariants()

    def test_history_and_latency_recorded(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 40, seed=9)
        fs = FullStackSimulation(cluster, wl, base_rate=0.02)
        rows = fs.run(10, 20)
        assert [r.round_index for r in rows] == list(range(10))
        assert all(r.p99_latency is not None for r in rows)
        assert all(np.isfinite(r.peak_switch_util) for r in rows)

    def test_migrated_vm_flows_rehome(self):
        cluster = make_cluster()
        wl = flash_crowd(cluster, 100, rack=1, start=45, peak=0.9, seed=10)
        fs = FullStackSimulation(
            cluster, wl, host_threshold=0.45, switch_threshold=0.9, base_rate=0.02
        )
        fs.run(30, 80)
        fs.sync_flows(80)  # flows re-home at the next sync after a migration
        pl = cluster.placement
        racks = pl.host_rack[pl.vm_host]
        for flow in fs.flow_table.flows.values():
            assert flow.src_rack == int(racks[flow.vm])

    def test_run_validation(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 40, seed=11)
        fs = FullStackSimulation(cluster, wl)
        with pytest.raises(ConfigurationError):
            fs.run(20, 10)
        with pytest.raises(ConfigurationError):
            FullStackSimulation(cluster, wl, base_rate=0.0)


class TestToRAlertPath:
    def test_saturated_uplink_raises_local_tor_alerts(self):
        cluster = make_cluster()
        # drive one rack's uplink far past capacity so its predicted
        # queue occupancy crosses the threshold
        wl = flash_crowd(cluster, 120, rack=1, start=40, peak=0.95, seed=12)
        fs = FullStackSimulation(
            cluster,
            wl,
            host_threshold=0.99,      # mute the server path
            switch_threshold=0.99,    # mute the outer-switch path
            tor_queue_threshold=0.3,
            base_rate=2.0,
        )
        rows = fs.run(20, 100)
        assert any(r.tor_alerts > 0 for r in rows)
        # the β-selection migrated something out of the saturated rack
        assert sum(r.migrations for r in rows) >= 1
        cluster.placement.check_invariants()

    def test_quiet_uplink_no_tor_alerts(self):
        cluster = make_cluster()
        wl = steady_demand(cluster, 60, base_level=0.2, seed=13)
        fs = FullStackSimulation(
            cluster, wl, base_rate=0.005, tor_queue_threshold=0.5
        )
        rows = fs.run(20, 50)
        assert all(r.tor_alerts == 0 for r in rows)


def faulted_loop(kind, target, at_round):
    """``examples/closed_loop.py``'s loop with one scheduled fault, warmed
    and run up to the round before the fault fires."""
    cluster = build_cluster(
        build_fattree(4, tor_agg_capacity=5.0),
        hosts_per_rack=2,
        fill_fraction=0.55,
        seed=3,
        dependency_degree=2.0,
        delay_sensitive_fraction=0.0,
    )
    wl = flash_crowd(cluster, 105, rack=1, start=55, peak=0.9, seed=8)
    schedule = FaultSchedule([FaultSpec(kind, target=target, at_round=at_round)])
    loop = FullStackSimulation(
        cluster,
        wl,
        host_threshold=0.45,
        switch_threshold=0.38,
        tor_queue_threshold=0.35,
        base_rate=0.8,
        config=SheriffConfig(fault_schedule=schedule),
    )
    loop.run(40, 40 + at_round)
    return loop


class TestFaultsActOnTheLoopsFlows:
    """The fault layer repairs the flow table the loop routes and syncs."""

    def test_switch_fail_reroutes_the_loops_flows(self):
        dead = 8  # an aggregation switch of pod 0
        loop = faulted_loop(FaultKind.SWITCH_FAIL, dead, at_round=2)
        t = 42
        loop.sync_flows(t)  # what the round syncs before the fault fires
        crossing = [f for f in loop.flow_table.flows.values() if dead in f.path]
        assert crossing
        loop.run_round(t)
        (fault,) = loop.sim.faults.log
        assert fault["detail"] == f"rerouted={len(crossing)} dropped=0 partitioned=0"
        assert not [f for f in loop.flow_table.flows.values() if dead in f.path]
        loop.sync_flows(t + 1)
        assert not [f for f in loop.flow_table.flows.values() if dead in f.path]
        # and on every round after it: neither a re-synced flow nor a
        # FLOWREROUTE detour returns to the dead switch
        for t in range(43, 96):
            loop.run_round(t)
            assert not [f for f in loop.flow_table.flows.values() if dead in f.path], t

    def test_a_partition_leaves_the_cut_off_racks_without_flows(self):
        loop = faulted_loop(FaultKind.SWITCH_FAIL, 8, at_round=2)
        loop.run_round(42)
        loop.flow_table.fail(9)  # pod 0's other aggregation switch
        assert loop.flow_table.disconnected_racks() == list(range(1, 8))
        for t in range(43, 48):
            first = loop.flow_table._next_id
            loop.run_round(t)  # the racks of pod 0 reach no other rack
            flows = loop.flow_table.flows
            assert flows
            assert not [f for f in flows.values() if {f.src_rack, f.dst_rack} & {0, 1}], t
            # a pair with no route spends no flow id: every id spent this
            # round is a flow registered this round
            new = [fid for fid in flows if fid >= first]
            assert loop.flow_table._next_id - first == len(new), t

    def test_host_crash_withdraws_the_lost_vms_flows(self):
        host = 3
        loop = faulted_loop(FaultKind.HOST_CRASH, host, at_round=2)
        t = 42
        loop.sync_flows(t)
        residents = set(loop.cluster.placement.vms_on_host(host).tolist())
        assert [f for f in loop.flow_table.flows.values() if f.vm in residents]
        loop.run_round(t)
        lost = loop.cluster.placement.lost_vms
        assert lost and lost <= residents
        assert not [f for f in loop.flow_table.flows.values() if f.vm in lost]
        # and on every round after it: each sync adds none back, and drops
        # the flows of the pairs whose other end was lost
        for t in range(43, 96):
            loop.run_round(t)
            lost = loop.cluster.placement.lost_vms
            assert lost, t
            assert not [f for f in loop.flow_table.flows.values() if f.vm in lost], t
            assert not [p for p in loop._dep_flows if lost.intersection(p)], t
