#!/usr/bin/env python
"""Sheriff on a user-defined fabric (leaf-spine).

The paper says Sheriff "can be easily implemented in other DCN
topologies"; this example proves it end to end on a topology the library
does *not* ship: a 2-tier leaf-spine Clos, built from an explicit edge
list.  The same public API then runs unchanged:

1. build the fabric with :func:`from_edge_list` and validate it;
2. inspect its ECMP path diversity;
3. populate it, run Sheriff balancing rounds, watch std-dev fall.

Run:  python examples/custom_leaf_spine.py
"""

import numpy as np

from repro.cluster import build_cluster
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.topology import (
    equal_cost_paths,
    from_edge_list,
    path_diversity,
    validate_topology,
)


def leaf_spine(leaves: int = 8, spines: int = 4):
    """Every leaf (ToR) connects to every spine — a 2-tier Clos."""
    kinds = ["tor"] * leaves + ["agg"] * spines
    edges = []
    for leaf in range(leaves):
        for s in range(spines):
            spine = leaves + s
            edges.append((leaf, spine, 10.0, 1.0))  # 10G leaf-spine links
    return from_edge_list(kinds, edges, name=f"leafspine-{leaves}x{spines}")


def main() -> None:
    topo = leaf_spine()
    validate_topology(topo)
    print(f"fabric : {topo}")

    # ECMP structure: every leaf pair has `spines` equal-cost 2-hop paths
    paths = equal_cost_paths(topo, 0, 1)
    print(f"leaf 0 -> leaf 1: {len(paths)} equal-cost paths, e.g. {paths[0]}")
    div = path_diversity(topo)
    off_diag = div[~np.eye(div.shape[0], dtype=bool)]
    print(f"path diversity: every pair has {int(off_diag.min())} paths\n")

    # the standard Sheriff pipeline runs unchanged on the custom fabric
    cluster = build_cluster(
        topo,
        hosts_per_rack=4,
        fill_fraction=0.55,
        skew=0.9,
        seed=7,
        delay_sensitive_fraction=0.0,
    )
    sim = SheriffSimulation(cluster)
    print(f"cluster: {cluster.num_hosts} hosts, {cluster.num_vms} VMs")
    print(f"{'round':>5} {'migrations':>11} {'std-dev %':>10}")
    for r in range(8):
        alerts, magnitudes = inject_fraction_alerts(cluster, 0.06, time=r, seed=50 + r)
        s = sim.run_round(alerts, magnitudes)
        print(f"{r:>5} {s.migrations:>11} {s.workload_std_after:>10.2f}")
    series = sim.workload_std_series()
    print(f"\nimbalance: {series[0]:.2f} % -> {series[-1]:.2f} %")
    # in a leaf-spine, every leaf is a one-hop neighbor of every other —
    # regional Sheriff's horizon covers the whole fabric
    from repro.cluster.shim import neighbor_racks

    print(f"one-hop neighbors of leaf 0: {sorted(neighbor_racks(topo, 0))}")


if __name__ == "__main__":
    main()
