"""Fig. 9: workload std-dev over VM migration rounds on Fat-Tree.

Paper setting: Fat-Tree topology, five percent of VMs raise alerts per
round, 24 migration rounds; "the standard deviation of the workload
percentages of all the servers in the network keeps going down" from
~38 % toward ~12 %.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import Series, format_series
from repro.cluster import build_cluster
from repro.sim import SheriffConfig, SheriffSimulation, inject_fraction_alerts
from repro.topology import build_fattree

ROUNDS = 24
SEED = 2015


def run_experiment():
    cluster = build_cluster(
        build_fattree(8),
        hosts_per_rack=4,
        fill_fraction=0.5,
        skew=1.1,  # start near the paper's ~38 % imbalance
        seed=SEED,
        delay_sensitive_fraction=0.0,
    )
    sim = SheriffSimulation(cluster, SheriffConfig(balance_weight=25.0))
    for r in range(ROUNDS):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, time=r, seed=SEED + r)
        sim.run_round(alerts, vma)
    cluster.placement.check_invariants()
    return sim.workload_std_series()


def test_fig09_fattree_workload_balance(benchmark, emit):
    series = run_once(benchmark, run_experiment)
    emit(
        format_series(
            "Fig. 9 — Sheriff on Fat-Tree: workload std-dev (%) per migration round",
            [Series("std_dev_pct", list(range(ROUNDS + 1)), series.tolist())],
            x_label="round",
        )
    )
    # the curve must fall substantially and not rebound past its start
    assert series[-1] < 0.55 * series[0]
    assert series.min() >= 0.0
    # overall downward trend: late average well below early average
    assert series[-6:].mean() < 0.6 * series[:3].mean()
