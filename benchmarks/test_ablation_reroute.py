"""Ablation: FLOWREROUTE-first vs migration-only congestion handling.

Sec. III-B: "live VM migration ... is more expensive and slower than flow
rerouting. Thus shim will implement flow reroute first."  We create a hot
aggregation switch by routing many flows through it, then resolve the
congestion (a) by rerouting (Alg. 1's outer-switch case) and (b) by
migrating the flows' VMs to other racks (which drags their flows along).
Rerouting must clear the hotspot at a fraction of the migration bill.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.cluster import build_cluster
from repro.migration.reroute import FlowTable
from repro.sim import SheriffSimulation, congestion_alerts, hot_switches, switch_capacity
from repro.topology import build_fattree

SEED = 2015
FLOW_RATE = 2.0


def build_congested():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        fill_fraction=0.4,
        seed=SEED,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    ft = FlowTable(cluster.topology)
    pl = cluster.placement
    for vm in pl.vms_in_rack(0):
        ft.add_flow(int(vm), 0, 1, FLOW_RATE)
    return cluster, ft


def peak_utilization(cluster, ft):
    cap = switch_capacity(cluster.topology)
    sw = cluster.topology.switches()
    with np.errstate(invalid="ignore"):
        util = ft.node_load[sw] / cap[sw]
    return float(np.nanmax(util))


def run_reroute():
    cluster, ft = build_congested()
    before = peak_utilization(cluster, ft)
    sim = SheriffSimulation(cluster)
    # α (0.1 by default) keeps each round's reroute to a *portion* of the
    # flows — moving everything at once would just recreate the hotspot on
    # the alternate path (the reason Alg. 2 selects a capacity portion, not
    # the full set)
    sim.flow_table = ft
    total_cost = 0.0
    rerouted = 0
    for t in range(4):
        alerts, vma = congestion_alerts(cluster, ft, time=t)
        if not alerts:
            break
        s = sim.run_round(alerts, vma)
        rerouted += sum(r.rerouted_flows for r in s.reports)
        total_cost += s.total_cost  # migrations triggered (should be ~0)
    return before, peak_utilization(cluster, ft), rerouted, total_cost


def run_migrate_only():
    cluster, ft = build_congested()
    before = peak_utilization(cluster, ft)
    sim = SheriffSimulation(cluster)
    # no flow table attached: outer-switch alerts cannot reroute, so we
    # instead migrate the flows' source VMs away and re-home their flows
    total_cost = 0.0
    migrations = 0
    pl = cluster.placement
    for t in range(4):
        if not hot_switches(cluster.topology, ft):
            break
        alerts, vma = congestion_alerts(cluster, ft, time=t)
        from repro.alerts.alert import Alert, AlertKind

        # translate each congestion alert into host alerts on the source rack
        host_alerts = []
        seen = set()
        for a in alerts:
            for h in pl.hosts_in_rack(a.rack):
                if int(h) not in seen:
                    seen.add(int(h))
                    host_alerts.append(
                        Alert(
                            kind=AlertKind.SERVER,
                            rack=a.rack,
                            magnitude=a.magnitude,
                            host=int(h),
                            time=t,
                        )
                    )
        s = sim.run_round(host_alerts, vma)
        migrations += s.migrations
        total_cost += s.total_cost
        # migrated VMs drag their flows to the new source rack
        for rep in s.reports:
            for vm, host, _ in rep.migration.moves:
                new_rack = int(pl.host_rack[host])
                for f in list(ft.flows.values()):
                    if f.vm == vm:
                        ft.remove_flow(f.flow_id)
                        ft.add_flow(vm, new_rack, f.dst_rack, f.rate)
    return before, peak_utilization(cluster, ft), migrations, total_cost


def test_ablation_reroute_first(benchmark, emit):
    (rb, ra, rerouted, rcost), (mb, ma, migrations, mcost) = run_once(
        benchmark, lambda: (run_reroute(), run_migrate_only())
    )
    rows = [
        {
            "reroute_util_before": rb,
            "reroute_util_after": ra,
            "flows_rerouted": rerouted,
            "reroute_migr_cost": rcost,
        },
        {
            "reroute_util_before": mb,
            "reroute_util_after": ma,
            "flows_rerouted": migrations,
            "reroute_migr_cost": mcost,
        },
    ]
    emit(
        format_table(
            "Ablation — reroute-first vs migrate-only (row 0 = reroute, row 1 = migrate)",
            rows,
        )
    )
    # both policies must relieve the hotspot...
    assert ra < rb
    assert ma < mb or migrations == 0
    # ...but rerouting does it without paying migration cost
    assert rcost == 0.0
    assert rerouted > 0
    if migrations:
        assert mcost > 0.0
