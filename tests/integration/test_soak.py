"""Soak test: long mixed-scenario runs must stay consistent.

200 rounds of alternating regimes — balancing alerts, quiet stretches,
congestion events, a switch failure and recovery, timed migrations —
with placement invariants re-derived throughout and bounded-state checks
at the end (no leak of reservations, holds, or cooldown entries).
"""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.migration.reroute import FlowTable
from repro.sim import (
    MigrationTiming,
    SheriffSimulation,
    congestion_alerts,
    inject_fraction_alerts,
)
from repro.topology import build_fattree
from repro.topology.base import NodeKind

SEED = 777
ROUNDS = 200


@pytest.mark.slow
def test_soak_mixed_regimes():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.5,
        skew=0.9,
        seed=SEED,
        dependency_degree=1.5,
        delay_sensitive_fraction=0.1,
    )
    flows = FlowTable(cluster.topology, ecmp=True)
    pl = cluster.placement
    racks = pl.host_rack[pl.vm_host]
    for vm in range(cluster.num_vms):
        for other in sorted(cluster.dependencies.neighbors(vm)):
            if other > vm and racks[vm] != racks[other]:
                flows.add_flow(vm, int(racks[vm]), int(racks[other]), 0.2)

    sim = SheriffSimulation(
        cluster,
        SheriffConfig(migration_timing=MigrationTiming(round_seconds=30.0)),
    )
    sim.flow_table = flows

    aggs = cluster.topology.nodes_of_kind(NodeKind.AGG)
    failed_switch = None
    rng = np.random.default_rng(SEED)

    for r in range(ROUNDS):
        regime = r % 20
        if regime < 8:  # balancing pressure
            alerts, vma = inject_fraction_alerts(
                cluster, 0.05, time=r, seed=SEED + r
            )
        elif regime < 12:  # quiet
            alerts, vma = [], {}
        else:  # congestion pressure
            alerts, vma = congestion_alerts(
                cluster, flows, utilization_threshold=0.5, time=r
            )
        if r == 77:
            failed_switch = int(aggs[0])
            flows.fail(failed_switch)
        if r == 133 and failed_switch is not None:
            flows.recover(failed_switch)
            failed_switch = None
        sim.run_round(alerts, vma)
        if r % 25 == 0:
            cluster.placement.check_invariants()

    # drain in-flight migrations
    for _ in range(30):
        sim.run_round([], {})
        if not sim.inflight.vms_in_flight:
            break
    cluster.placement.check_invariants()
    assert not sim.inflight.vms_in_flight
    assert sim.receivers.pending == 0
    # no residual capacity holds
    for h in range(cluster.num_hosts):
        assert sim.inflight.hold_on(h) == 0
    # flow accounting still conserved
    expected = sum(f.rate * len(f.path) for f in flows.flows.values())
    assert flows.node_load.sum() == pytest.approx(expected, rel=1e-9)
    # the long run achieved (and held) a better balance than the start
    series = sim.workload_std_series()
    assert series[-1] < series[0]
    assert len(sim.history) == ROUNDS + min(30, len(sim.history) - ROUNDS)
