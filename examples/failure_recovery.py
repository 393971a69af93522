#!/usr/bin/env python
"""Switch failure, flow recovery, and migration replanning.

The paper assumes crashes are "resolved by backup system"; this example
shows what that backup path looks like in the library:

1. build a Fat-Tree, register inter-rack flows;
2. kill an aggregation switch in the flow table — flows crossing it
   reroute automatically;
3. rebuild the migration cost model on the table's surviving bandwidth
   and verify new migration plans route around the dead switch;
4. push the fabric to a partition (BCube(2) with both switches dead) and
   see the table refuse a bandwidth to plan over.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.cluster import build_cluster
from repro.costs import CostModel
from repro.errors import TopologyError
from repro.migration.reroute import FlowTable
from repro.sim import inject_fraction_alerts, regional_migration_round
from repro.topology import build_bcube, build_fattree
from repro.topology.base import NodeKind


def main() -> None:
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        seed=11,
        dependency_degree=1.5,
        delay_sensitive_fraction=0.0,
    )
    topo = cluster.topology
    print(f"fabric: {topo}")

    # register one flow per inter-rack dependency
    flows = FlowTable(topo)
    pl = cluster.placement
    racks = pl.host_rack[pl.vm_host]
    n_flows = 0
    for vm in range(cluster.num_vms):
        for other in sorted(cluster.dependencies.neighbors(vm)):
            if other > vm and racks[vm] != racks[other]:
                flows.add_flow(vm, int(racks[vm]), int(racks[other]), 0.1)
                n_flows += 1
    print(f"flows registered: {n_flows}")

    # ------------------------------------------------------------------ #
    # kill the busiest aggregation switch — the interesting case
    aggs = topo.nodes_of_kind(NodeKind.AGG)
    agg = int(aggs[np.argmax(flows.node_load[aggs])])
    crossing = len(flows.flows_through(agg))
    rerouted, dropped = flows.fail(agg)
    print(f"\nkilled aggregation switch {agg} ({crossing} flows crossed it):")
    print(f"  flows rerouted    : {rerouted}")
    print(f"  flows dropped     : {len(dropped)}")
    print(f"  racks disconnected: {flows.disconnected_racks() or 'none'}")
    assert abs(flows.load_of(agg)) < 1e-9

    # migration planning on the surviving fabric
    cm = CostModel(cluster, available_bandwidth=flows.available_bandwidth())
    _, magnitudes = inject_fraction_alerts(cluster, 0.1, seed=2)
    plan = regional_migration_round(cluster, cm, sorted(magnitudes))
    crossing_dead = sum(
        agg in cm.table.path(pl.rack_of(vm), int(pl.host_rack[h]))
        for vm, h, _ in plan.moves
    )
    print(
        f"\nreplanned migration round: {len(plan.moves)} moves, "
        f"{crossing_dead} of them across the dead switch (must be 0)"
    )

    # ------------------------------------------------------------------ #
    print("\npartition handling on BCube(2):")
    small = build_cluster(build_bcube(2), hosts_per_rack=2, seed=3)
    fabric = FlowTable(small.topology)
    fabric.fail(2)
    fabric.fail(3)
    print(f"  both switches dead -> disconnected racks: {fabric.disconnected_racks()}")
    try:
        fabric.available_bandwidth()
    except TopologyError as exc:
        print(f"  replanning refused: {exc}")


if __name__ == "__main__":
    main()
