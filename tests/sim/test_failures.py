"""Switch failure and recovery in the flow table."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.costs import CostModel
from repro.errors import TopologyError
from repro.migration.reroute import FlowTable, flow_reroute
from repro.topology import build_bcube, build_fattree
from repro.topology.base import NodeKind


@pytest.fixture
def env():
    cluster = build_cluster(
        build_fattree(4), hosts_per_rack=2, seed=90, dependency_degree=0.0
    )
    ft = FlowTable(cluster.topology)
    return cluster, ft


def bcube2_table(seed=1):
    """BCube(2) (racks 0, 1; switches 2, 3) with one flow from rack 0 to 1."""
    cluster = build_cluster(build_bcube(2), hosts_per_rack=2, seed=seed)
    ft = FlowTable(cluster.topology)
    ft.add_flow(vm=0, src_rack=0, dst_rack=1, rate=1.0)
    return ft


class TestFail:
    def test_rejects_rack_and_double_failures(self, env):
        cluster, ft = env
        with pytest.raises(TopologyError):
            ft.fail(0)  # rack, not a switch
        sw = int(cluster.topology.switches()[0])
        ft.fail(sw)
        with pytest.raises(TopologyError):
            ft.fail(sw)

    def test_flows_rerouted_off_dead_switch(self, env):
        cluster, ft = env
        fid = ft.add_flow(vm=0, src_rack=0, dst_rack=1, rate=1.0)
        dead = ft.flows[fid].path[1]
        rerouted, dropped = ft.fail(dead)
        assert rerouted == 1
        assert dead not in ft.flows[fid].path
        assert dropped == []

    def test_flow_dropped_when_no_path(self):
        ft = bcube2_table()
        (fid,) = ft.flows
        ft.fail(2)
        _, dropped = ft.fail(3)  # both BCube(2) switches dead
        assert fid in dropped
        assert fid not in ft.flows
        assert ft.disconnected_racks()  # fabric partitioned

    def test_fattree_survives_one_agg(self, env):
        cluster, ft = env
        agg = int(cluster.topology.nodes_of_kind(NodeKind.AGG)[0])
        ft.fail(agg)
        assert ft.disconnected_racks() == []

    def test_cost_model_avoids_dead_switch(self, env):
        cluster, ft = env
        agg = int(cluster.topology.nodes_of_kind(NodeKind.AGG)[0])
        ft.fail(agg)
        cm_after = CostModel(cluster, available_bandwidth=ft.available_bandwidth())
        # all rack pairs still reachable
        r = cluster.num_racks
        assert np.isfinite(cm_after.table.path_weight[:, :r]).all()
        # and no selected path crosses the dead switch
        for a in range(r):
            for b in range(r):
                if a != b:
                    assert agg not in cm_after.table.path(a, b)

    def test_partition_blocks_replanning(self):
        cluster = build_cluster(build_bcube(2), hosts_per_rack=2, seed=2)
        ft = FlowTable(cluster.topology)
        ft.fail(2)
        ft.fail(3)
        with pytest.raises(TopologyError, match="partitioned"):
            ft.available_bandwidth()

    def test_recover(self, env):
        cluster, ft = env
        sw = int(cluster.topology.switches()[0])
        ft.fail(sw)
        ft.recover(sw)
        assert ft.failed == set()
        with pytest.raises(TopologyError):
            ft.recover(sw)

    def test_recover_readmits_dropped_flows(self):
        ft = bcube2_table()
        ft.fail(2)
        ft.fail(3)  # no surviving path: flow dropped
        assert len(ft.flows) == 0
        readmitted = ft.recover(3)
        assert len(readmitted) == 1
        assert ft.disconnected_racks() == []
        flow = ft.flows[readmitted[0]]
        assert (flow.vm, flow.src_rack, flow.dst_rack) == (0, 0, 1)
        assert 2 not in flow.path  # routed around the still-failed switch

    def test_fail_recover_fail_cycle(self):
        ft = bcube2_table()
        ft.fail(2)
        ft.fail(3)
        ft.recover(3)  # flow back, carried by switch 3
        _, dropped = ft.fail(3)  # second outage drops it again
        assert len(dropped) == 1
        assert len(ft.flows) == 0
        readmitted = ft.recover(2)  # and the other switch brings it back
        assert len(readmitted) == 1
        assert 3 not in ft.flows[readmitted[0]].path

    def test_recover_on_partitioned_fabric(self):
        """Re-admission works even while the fabric stays partitioned
        elsewhere; what still has no path stays dropped for later."""
        ft = bcube2_table()
        ft.fail(2)
        ft.fail(3)
        assert len(ft.recover(2)) == 1  # path via switch 2 again
        with pytest.raises(TopologyError):
            ft.recover(2)  # not failed any more
        assert ft.failed == {3}

    def test_available_bandwidth_zeroed(self, env):
        cluster, ft = env
        sw = int(cluster.topology.switches()[0])
        ft.fail(sw)
        bw = ft.available_bandwidth()
        lt = cluster.topology.links
        touched = (lt.u == sw) | (lt.v == sw)
        assert (bw[touched] == 0).all()
        assert (bw[~touched] == lt.capacity[~touched]).all()


class TestRoutesAvoidTheFailedSwitches:
    """Every route the table takes during an outage avoids the dead
    switch, and a recovered switch carries flows again."""

    def test_single_path_add_flow(self, env):
        cluster, ft = env
        dead = ft._route(0, 7)[1]  # the uplink the whole fabric picks
        ft.fail(dead)
        fid = ft.add_flow(vm=0, src_rack=0, dst_rack=7, rate=1.0)
        assert dead not in ft.flows[fid].path
        assert ft.load_of(dead) == 0.0
        ft.recover(dead)
        fid = ft.add_flow(vm=1, src_rack=0, dst_rack=7, rate=1.0)
        assert ft.flows[fid].path[1] == dead

    def test_ecmp_add_flow(self, env):
        cluster, _ = env
        healthy = FlowTable(cluster.topology, ecmp=True)
        for i in range(16):
            healthy.add_flow(vm=i, src_rack=0, dst_rack=7, rate=1.0)
        dead = healthy.flows[0].path[1]
        ft = FlowTable(cluster.topology, ecmp=True)
        ft.fail(dead)
        for i in range(8):
            fid = ft.add_flow(vm=i, src_rack=0, dst_rack=7, rate=1.0)
            path, hashed = ft.flows[fid].path, healthy.flows[fid].path
            assert dead not in path
            # a hash pick that misses the dead switch is kept
            assert path == hashed or dead in hashed
        ft.recover(dead)
        later = [healthy.flows[fid].path for fid in range(8, 16)]
        assert any(dead in path for path in later)
        for i, path in zip(range(8, 16), later):
            fid = ft.add_flow(vm=i, src_rack=0, dst_rack=7, rate=1.0)
            assert ft.flows[fid].path == path

    def test_hot_switch_reroute(self, env):
        cluster, ft = env
        fid = ft.add_flow(vm=0, src_rack=0, dst_rack=7, rate=1.0)
        hot = ft.flows[fid].path[1]
        (dead,) = {int(v) for v in cluster.topology.neighbors(0)} - {hot}
        ft.fail(dead)
        # the only uplink left is hot: no detour avoids both
        assert flow_reroute(ft, [fid], {hot}) == (0, 1)
        assert dead not in ft.flows[fid].path
        ft.recover(dead)
        assert flow_reroute(ft, [fid], {hot}) == (1, 0)
        assert ft.flows[fid].path[1] == dead

    def test_a_cut_off_pair_registers_nothing(self):
        ft = bcube2_table()
        ft.fail(2)
        ft.fail(3)  # the one flow is dropped: no path is left
        with pytest.raises(TopologyError):
            ft.add_flow(vm=1, src_rack=0, dst_rack=1, rate=1.0)
        # the refused pair spends no id: the next flow takes id 1
        assert ft._next_id == 1 and not ft.flows
        assert not ft.node_load.any()
        ft.recover(3)
        assert ft.add_flow(vm=1, src_rack=0, dst_rack=1, rate=1.0) == 2


class TestSeededDegradedRunPin:
    """The flow paths and per-switch loads of a seeded k = 4 degraded run.

    The bench decision digest never sees ``Flow.path``, so a reroute that
    picks a different (equally short) detour would pass every decision
    check; this pins the paths and ``node_load`` bytes after ten rounds of
    overlapping switch failures — one of which cuts racks off the fabric,
    so flows are dropped and later readmitted — beside lossy REQUESTs,
    aborted migrations, SLO charges and tracing.
    """

    SEED = 2015
    # rack ids are 0..7 at k = 4; 8..15 are aggregation, 16..19 core
    SWITCH_EVENTS = [
        ("SWITCH_FAIL", 19, 1), ("SWITCH_FAIL", 9, 2), ("SWITCH_FAIL", 8, 3),
        ("SWITCH_FAIL", 11, 3), ("SWITCH_RECOVER", 9, 4), ("SWITCH_FAIL", 10, 5),
        ("SWITCH_RECOVER", 8, 6), ("SWITCH_RECOVER", 19, 7),
        ("SWITCH_RECOVER", 10, 8), ("SWITCH_RECOVER", 11, 8),
    ]

    def test_paths_and_loads_are_pinned(self):
        import hashlib
        import json

        from repro.config import SheriffConfig
        from repro.faults import ChannelPolicy, FaultKind, FaultSchedule, FaultSpec
        from repro.obs.tracer import RecordingTracer
        from repro.sim.engine import SheriffSimulation
        from repro.sim.inflight import MigrationTiming
        from repro.sim.scenario import inject_fraction_alerts

        seed = self.SEED
        cluster = build_cluster(
            build_fattree(4), hosts_per_rack=4, fill_fraction=0.5, skew=1.1,
            seed=seed, delay_sensitive_fraction=0.1,
        )
        specs = [FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.25)] + [
            FaultSpec(FaultKind[kind], target=target, at_round=r)
            for kind, target, r in self.SWITCH_EVENTS
        ]
        sim = SheriffSimulation(cluster, SheriffConfig(
            balance_weight=25.0, migration_timing=MigrationTiming(),
            with_flows=True, slo=True, tracer=RecordingTracer(),
            channel_policy=ChannelPolicy(loss_probability=0.1, max_retries=3, seed=seed),
            fault_schedule=FaultSchedule(specs, seed=seed),
        ))
        for r in range(10):
            alerts, vma = inject_fraction_alerts(cluster, 0.08, time=r, seed=seed + r)
            sim.run_round(alerts, vma)

        details = [
            d["detail"] for d in sim.faults.log
            if "rerouted" in d["detail"] or "readmitted" in d["detail"]
        ]
        assert details == [
            "rerouted=64 dropped=0 partitioned=0",
            "rerouted=35 dropped=0 partitioned=0",
            "rerouted=0 dropped=35 partitioned=7",
            "rerouted=24 dropped=0 partitioned=7",
            "readmitted=35 partitioned=0",
            "rerouted=0 dropped=39 partitioned=2",
            "readmitted=0 partitioned=2",
            "readmitted=0 partitioned=2",
            "readmitted=39 partitioned=0",
            "readmitted=0 partitioned=0",
        ]
        ft = sim.flow_table
        # 145 ids: a pair the partitions left with no route spent none
        assert (len(ft.flows), ft._next_id) == (71, 145)
        paths = [f.path for _, f in sorted(ft.flows.items())]
        assert hashlib.sha256(json.dumps(paths).encode()).hexdigest() == (
            "ad82976c22dc16725822d48167ddc90f4c148f2d02090ca4ca6befc636ce7e91"
        )
        assert hashlib.sha256(ft.node_load.tobytes()).hexdigest() == (
            "d889c9c1eda8f0d75218ef047b5ce58258887016f96dc3ee51175b157dd7ad59"
        )
