"""Ablation: instantaneous vs timed (in-flight) migrations.

The paper folds the six-stage window into the constant ``C_r`` and its
simulation moves VMs instantly.  With the in-flight model (destination
reserved at acceptance, landing after the Fig. 2 timeline) the balancing
curve of Fig. 9 converges more slowly and double-holds capacity — the
price of physical realism this reproduction can quantify and the paper
could not.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import Series, format_series
from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.sim import MigrationTiming, SheriffSimulation, inject_fraction_alerts
from repro.topology import build_fattree

SEED = 2015
ROUNDS = 24


def run_mode(timing):
    cluster = build_cluster(
        build_fattree(8),
        hosts_per_rack=4,
        skew=1.1,
        fill_fraction=0.5,
        seed=SEED,
        delay_sensitive_fraction=0.0,
    )
    sim = SheriffSimulation(
        cluster, SheriffConfig(balance_weight=25.0, migration_timing=timing)
    )
    for r in range(ROUNDS):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, time=r, seed=SEED + r)
        sim.run_round(alerts, vma)
    cluster.placement.check_invariants()
    return sim.workload_std_series()


def run_experiment():
    instant = run_mode(None)
    # one-round windows: small VMs land next round
    fast = run_mode(MigrationTiming(round_seconds=60.0))
    # slow network: multi-round windows for most VMs
    slow = run_mode(
        MigrationTiming(round_seconds=10.0, bandwidth_mbps=60.0)
    )
    return instant, fast, slow


def test_ablation_migration_window(benchmark, emit):
    instant, fast, slow = run_once(benchmark, run_experiment)
    x = list(range(ROUNDS + 1))
    emit(
        format_series(
            "Ablation — Fig. 9 balancing under migration-window models",
            [
                Series("instant", x, instant.tolist()),
                Series("fast_window", x, fast.tolist()),
                Series("slow_window", x, slow.tolist()),
            ],
            x_label="round",
        )
    )
    # every mode still balances...
    assert instant[-1] < 0.6 * instant[0]
    assert fast[-1] < 0.7 * fast[0]
    assert slow[-1] < 0.9 * slow[0]
    # ...but longer windows converge more slowly: compare mid-run std-dev
    mid = ROUNDS // 2
    assert instant[mid] <= fast[mid] + 1.5
    assert fast[mid] <= slow[mid] + 1.5
    # and the slow-window end state is no better than the instant one
    assert instant[-1] <= slow[-1] + 1.5
