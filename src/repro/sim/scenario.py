"""Alert-generation scenarios.

Two ways to produce a round's alerts:

* :func:`inject_fraction_alerts` — the paper's Fig. 9–14 setting: "five
  percent of virtual machines in each pod raise alerts for migration".
  The alerting VMs are drawn from the most-loaded hosts, since that is
  where overload alerts come from in reality.
* :func:`forecast_alert_round` — the full pre-alert pipeline: per-VM
  monitors predict the next profile and alert *before* the overload
  (exercises :mod:`repro.alerts` end to end).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.alerts.alert import Alert, AlertKind
from repro.alerts.monitor import VMMonitor, fleet_alert_values
from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator

__all__ = [
    "inject_fraction_alerts",
    "forecast_alert_round",
]


def inject_fraction_alerts(
    cluster: Cluster,
    fraction: float = 0.05,
    *,
    time: int = 0,
    seed: SeedLike = None,
) -> Tuple[List[Alert], Dict[int, float]]:
    """The Sec. VI-B rule: *fraction* of VMs raise SERVER alerts.

    VMs are sampled with probability proportional to their host's load
    fraction (overloaded hosts alert, idle ones do not).  Returns the
    alert list plus the per-VM ALERT magnitudes PRIORITY consumes.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    rng = as_generator(seed)
    pl = cluster.placement
    n = pl.num_vms
    k = max(1, int(round(fraction * n)))
    load = pl.host_load_fraction()
    vm_load = load[pl.vm_host]
    # movable VMs only — delay-sensitive ones never alert for migration
    movable = ~pl.vm_delay_sensitive
    # overload alerts come from hosts above the fleet average; the small
    # proportional floor keeps the pool non-degenerate on a balanced fleet
    excess = np.clip(vm_load - load.mean(), 0.0, None)
    weights = (excess + 0.02 * vm_load) * movable
    total = weights.sum()
    if total <= 0:
        return [], {}
    p = weights / total
    k = min(k, int((p > 0).sum()))
    chosen = rng.choice(n, size=k, replace=False, p=p)
    alerts: List[Alert] = []
    vm_alerts: Dict[int, float] = {}
    for vm in chosen:
        host = int(pl.vm_host[vm])
        rack = int(pl.host_rack[host])
        magnitude = float(min(1.0, max(vm_load[vm], 1e-3)))
        alerts.append(
            Alert(
                kind=AlertKind.SERVER,
                rack=rack,
                magnitude=magnitude,
                host=host,
                vm=int(vm),
                time=time,
            )
        )
        vm_alerts[int(vm)] = magnitude
    return alerts, vm_alerts


def forecast_alert_round(
    cluster: Cluster,
    monitors: Dict[int, VMMonitor],
    *,
    time: int = 0,
) -> Tuple[List[Alert], Dict[int, float]]:
    """Forecast-driven alerts: ask every monitored VM for its ALERT value.

    Monitors must be driven externally (``observe`` per round); this
    function only *reads* their predictions, mirroring the shim's periodic
    collection.  The values come from
    :func:`~repro.alerts.monitor.fleet_alert_values`, which reads the
    one-step monitors as one selector bank; the scalar
    :meth:`~repro.alerts.monitor.VMMonitor.alert_value`, one monitor at a
    time, is the oracle the tests hold it to.
    """
    pl = cluster.placement
    values = np.asarray(fleet_alert_values(list(monitors.values())), dtype=np.float64)
    alerted = np.flatnonzero(~(values <= 0.0))
    vms = np.fromiter(monitors, np.intp, len(monitors))[alerted]
    values = values[alerted]
    vm_alerts = dict(zip(vms.tolist(), values.tolist()))
    # each alerted host's magnitude is its VMs' largest ALERT
    hosts, at = np.unique(pl.vm_host[vms], return_inverse=True)
    peaks = np.zeros(hosts.shape[0])
    np.maximum.at(peaks, at, values)
    alerts = [
        Alert(kind=AlertKind.SERVER, rack=rack, magnitude=mag, host=host, time=time)
        for host, rack, mag in zip(
            hosts.tolist(), pl.host_rack[hosts].tolist(), peaks.tolist()
        )
    ]
    return alerts, vm_alerts
