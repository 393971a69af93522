"""Ablation: ECMP hash-spreading vs single-path flow placement.

The DCN congestion literature the paper builds on (Hedera, Mahout) is
about ECMP collisions; Sheriff's FLOWREROUTE is the repair.  This bench
quantifies the starting point: the same flow population placed (a) all on
the deterministic min-weight path and (b) hash-spread across equal-cost
paths.  ECMP slashes the peak switch utilization before any management
runs — and the residual imbalance is what FLOWREROUTE then cleans up.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.migration.reroute import FlowTable
from repro.sim import (
    SheriffSimulation,
    congestion_alerts,
    latency_percentiles,
    switch_capacity,
)
from repro.topology import build_fattree

SEED = 2015
FLOW_RATE = 0.5


def populate(ft, cluster, rng):
    """Many flows between random inter-pod rack pairs."""
    pl = cluster.placement
    for vm in range(0, cluster.num_vms, 2):
        src = int(pl.host_rack[pl.vm_host[vm]])
        dst = int(rng.integers(0, cluster.num_racks))
        if dst != src:
            ft.add_flow(vm, src, dst, FLOW_RATE)


def peak_util(cluster, ft):
    cap = switch_capacity(cluster.topology)
    sw = cluster.topology.switches()
    return float(np.max(ft.node_load[sw] / cap[sw]))


def run_mode(ecmp: bool):
    cluster = build_cluster(
        build_fattree(8),
        hosts_per_rack=2,
        seed=SEED,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    rng = np.random.default_rng(SEED)
    ft = FlowTable(cluster.topology, ecmp=ecmp)
    populate(ft, cluster, rng)
    before = peak_util(cluster, ft)
    p99_before = latency_percentiles(cluster.topology, ft)["p99"]
    # then let Sheriff's reroute clean up what is left
    sim = SheriffSimulation(cluster, SheriffConfig(alpha=0.2))
    sim.flow_table = ft
    rerouted = 0
    for t in range(4):
        alerts, vma = congestion_alerts(cluster, ft, utilization_threshold=0.5, time=t)
        if not alerts:
            break
        s = sim.run_round(alerts, vma)
        rerouted += sum(r.rerouted_flows for r in s.reports)
    p99_after = latency_percentiles(cluster.topology, ft)["p99"]
    return before, peak_util(cluster, ft), rerouted, len(ft.flows), p99_before, p99_after


def run_experiment():
    single = run_mode(False)
    ecmp = run_mode(True)
    return single, ecmp


def test_ablation_ecmp(benchmark, emit):
    (sb, sa, sr, n1, sl0, sl1), (eb, ea, er, n2, el0, el1) = run_once(
        benchmark, run_experiment
    )
    rows = [
        {
            "mode": "single-path",
            "peak_before": sb,
            "peak_after_reroute": sa,
            "rerouted": sr,
            "p99_latency_before": sl0,
            "p99_latency_after": sl1,
        },
        {
            "mode": "ecmp",
            "peak_before": eb,
            "peak_after_reroute": ea,
            "rerouted": er,
            "p99_latency_before": el0,
            "p99_latency_after": el1,
        },
    ]
    emit(
        format_table(
            f"Ablation — ECMP vs single-path flow placement ({n1} flows)",
            rows,
        )
    )
    assert n1 == n2
    # ECMP alone beats single-path placement substantially
    assert eb < 0.7 * sb
    # FLOWREROUTE improves (or keeps) both starting points
    assert sa <= sb + 1e-9
    assert ea <= eb + 1e-9
    # tail latency follows: ECMP's p99 is far below single-path's, and
    # rerouting improves the single-path tail
    assert el0 < sl0
    assert sl1 <= sl0 + 1e-9
