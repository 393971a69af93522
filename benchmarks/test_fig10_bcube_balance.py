"""Fig. 10: workload std-dev over VM migration rounds on BCube.

Same protocol as Fig. 9 on the server-centric fabric; the paper's curve
falls from ~45 % to ~20 % over 24 rounds.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import Series, format_series
from repro.cluster import build_cluster
from repro.sim import SheriffConfig, SheriffSimulation, inject_fraction_alerts
from repro.topology import build_bcube

ROUNDS = 24
SEED = 2015


def run_experiment():
    cluster = build_cluster(
        build_bcube(8),
        hosts_per_rack=8,
        fill_fraction=0.5,
        skew=1.1,
        seed=SEED,
        delay_sensitive_fraction=0.0,
    )
    sim = SheriffSimulation(cluster, SheriffConfig(balance_weight=25.0))
    for r in range(ROUNDS):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, time=r, seed=SEED + r)
        sim.run_round(alerts, vma)
    cluster.placement.check_invariants()
    return sim.workload_std_series()


def test_fig10_bcube_workload_balance(benchmark, emit):
    series = run_once(benchmark, run_experiment)
    emit(
        format_series(
            "Fig. 10 — Sheriff on BCube: workload std-dev (%) per migration round",
            [Series("std_dev_pct", list(range(ROUNDS + 1)), series.tolist())],
            x_label="round",
        )
    )
    assert series[-1] < 0.55 * series[0]
    assert series[-6:].mean() < 0.6 * series[:3].mean()
