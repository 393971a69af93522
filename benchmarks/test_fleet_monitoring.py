"""Fleet-scale monitoring throughput.

Every VM runs four per-resource forecasters ticking once per management
round; the scheme only scales if a tick's cost is independent of how long
the fleet has been up.  This bench measures monitor throughput (VM-ticks
per second) at two fleet sizes and after long uptimes, exercising the
incremental ARIMA state (see docs/architecture.md).
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.alerts.monitor import VMMonitor
from repro.alerts.threshold import AlertConfig
from repro.analysis import format_table
from repro.traces.workload import WorkloadStream

SEED = 2015
WARM = 60


def tick_rate(n_vms: int, ticks: int) -> tuple:
    cfg = AlertConfig(threshold=0.9)
    streams = [
        WorkloadStream.generate(WARM + ticks, seed=SEED + i) for i in range(n_vms)
    ]
    monitors = [VMMonitor(s.history(WARM - 1, WARM), cfg) for s in streams]
    t0 = time.perf_counter()
    alerts = 0
    for t in range(WARM, WARM + ticks):
        for mon, s in zip(monitors, streams):
            if mon.alert_value() > 0:
                alerts += 1
            mon.observe(s.at(t))
    elapsed = time.perf_counter() - t0
    return n_vms * ticks / elapsed, alerts


def run_experiment():
    rows = []
    for n_vms, ticks in [(20, 20), (80, 20)]:
        rate, alerts = tick_rate(n_vms, ticks)
        rows.append(
            {
                "vms": n_vms,
                "ticks_per_vm": ticks,
                "vm_ticks_per_sec": rate,
                "alerts": alerts,
            }
        )
    return rows


def test_fleet_monitoring_throughput(benchmark, emit):
    rows = run_once(benchmark, run_experiment)
    emit(
        format_table(
            "Fleet monitoring — VM-ticks/second (light pool, 4 resources/VM)",
            rows,
        )
    )
    # throughput per VM-tick should be roughly flat across fleet sizes
    small, large = rows[0]["vm_ticks_per_sec"], rows[1]["vm_ticks_per_sec"]
    assert large > 0.4 * small
    # the monitoring loop must sustain a sane absolute rate: a 1000-VM
    # fleet at one tick per 60 s round needs ~17 VM-ticks/s
    assert small > 100.0
