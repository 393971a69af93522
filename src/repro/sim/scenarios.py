"""Demand-scenario factory.

The pre-alert experiments all need a :class:`DemandDrivenWorkload` with
some overload structure; building one by hand (pick hosts, schedule
ramps, seed streams) was re-implemented in every bench and example.
This module names the recurring shapes:

* :func:`host_surges` — correlated per-host ramps (tenant-wide spikes),
  the pre-alert-vs-reactive workhorse;
* :func:`flash_crowd` — one rack's VMs all surge simultaneously (a viral
  service), stressing the β/ToR path;
* :func:`creeping_growth` — slow fleet-wide drift upward, the capacity-
  planning regime where long-horizon forecasts matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceKind
from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.sim.reactive import DemandDrivenWorkload
from repro.traces.workload import WorkloadStream

__all__ = [
    "SurgeEvent",
    "host_surges",
    "flash_crowd",
    "creeping_growth",
]


@dataclass(frozen=True)
class SurgeEvent:
    """One scheduled overload event."""

    host: int
    start: int
    ramp_len: int = 10
    peak: float = 0.95


def _streams(
    cluster: Cluster,
    horizon: int,
    ramps_for,
    *,
    base_level: float,
    diurnal_amplitude: float,
    wander_sigma: float,
    seed: SeedLike,
) -> DemandDrivenWorkload:
    """Build per-VM streams: batch path for quiet VMs, per-VM for ramped.

    The vectorized batch generator covers the (usually vast) majority of
    VMs without scheduled events; only VMs with ramps fall back to the
    per-stream generator so their injections stay exact.
    """
    if horizon < 16:
        raise ConfigurationError(f"horizon must be >= 16, got {horizon}")
    rng = as_generator(seed)
    pl = cluster.placement
    n = cluster.num_vms
    vm_ramps = {vm: ramps_for(vm, int(pl.vm_host[vm])) for vm in range(n)}
    from repro.traces.workload import generate_streams

    batch = generate_streams(
        n,
        horizon,
        base_level=base_level,
        diurnal_amplitude=diurnal_amplitude,
        wander_sigma=wander_sigma,
        burst_rate=0.0,
        seed=rng,
    )
    streams: Dict[int, WorkloadStream] = {}
    for vm in range(n):
        ramps = vm_ramps[vm]
        if ramps:
            streams[vm] = WorkloadStream.generate(
                horizon,
                base_level=base_level,
                diurnal_amplitude=diurnal_amplitude,
                burst_rate=0.0,
                wander_sigma=wander_sigma,
                ramps=ramps,
                seed=int(rng.integers(0, 2**31)),
            )
        else:
            streams[vm] = batch[vm]
    return DemandDrivenWorkload(cluster, streams)


def host_surges(
    cluster: Cluster,
    horizon: int,
    *,
    fraction: float = 0.25,
    earliest: int,
    latest: int,
    ramp_len: int = 10,
    peak: float = 0.95,
    base_level: float = 0.45,
    diurnal_amplitude: float = 0.08,
    wander_sigma: float = 0.005,
    seed: SeedLike = None,
) -> Tuple[DemandDrivenWorkload, List[SurgeEvent]]:
    """Correlated surges on a random *fraction* of hosts.

    Every VM of a surging host ramps toward saturation at the same round
    — the tenant-wide spike that drives the pre-alert ablation.  Returns
    the workload plus the schedule so tests can assert against it.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    if not (0 <= earliest < latest <= horizon):
        raise ConfigurationError(
            f"need 0 <= earliest < latest <= horizon, got {earliest}/{latest}/{horizon}"
        )
    rng = as_generator(seed)
    pl = cluster.placement
    n_surge = max(1, int(round(fraction * pl.num_hosts)))
    hosts = rng.choice(pl.num_hosts, size=n_surge, replace=False)
    events = [
        SurgeEvent(
            host=int(h),
            start=int(rng.integers(earliest, latest)),
            ramp_len=ramp_len,
            peak=peak,
        )
        for h in hosts
    ]
    by_host = {e.host: e for e in events}

    def ramps_for(vm: int, host: int):
        e = by_host.get(host)
        if e is None:
            return []
        return [(int(ResourceKind.CPU), e.start, e.ramp_len, e.peak)]

    wl = _streams(
        cluster,
        horizon,
        ramps_for,
        base_level=base_level,
        diurnal_amplitude=diurnal_amplitude,
        wander_sigma=wander_sigma,
        seed=rng,
    )
    return wl, events


def flash_crowd(
    cluster: Cluster,
    horizon: int,
    *,
    rack: int,
    start: int,
    ramp_len: int = 6,
    peak: float = 0.98,
    base_level: float = 0.4,
    seed: SeedLike = None,
) -> DemandDrivenWorkload:
    """Every VM in one rack surges at once (a viral service).

    This is the regime where single-host evictions cannot keep up and the
    shim's rack-level β selection (Eq. 10) is the right tool.
    """
    if not (0 <= rack < cluster.num_racks):
        raise ConfigurationError(f"unknown rack {rack}")
    if not (0 <= start < horizon):
        raise ConfigurationError(f"start must be in 0..{horizon - 1}, got {start}")
    pl = cluster.placement
    rack_hosts = set(int(h) for h in pl.hosts_in_rack(rack))

    def ramps_for(vm: int, host: int):
        if host in rack_hosts:
            return [(int(ResourceKind.TRF), start, ramp_len, peak)]
        return []

    return _streams(
        cluster,
        horizon,
        ramps_for,
        base_level=base_level,
        diurnal_amplitude=0.05,
        wander_sigma=0.005,
        seed=seed,
    )


def creeping_growth(
    cluster: Cluster,
    horizon: int,
    *,
    start_level: float = 0.35,
    end_level: float = 0.8,
    seed: SeedLike = None,
) -> DemandDrivenWorkload:
    """Fleet-wide slow upward drift from *start_level* to *end_level*."""
    if not (0.0 < start_level < end_level <= 1.0):
        raise ConfigurationError(
            f"need 0 < start_level < end_level <= 1, got {start_level}/{end_level}"
        )

    def ramps_for(vm: int, host: int):
        # one long shallow ramp across the whole horizon, every VM
        return [(int(ResourceKind.CPU), 0, horizon, end_level - start_level)]

    return _streams(
        cluster,
        horizon,
        ramps_for,
        base_level=start_level,
        diurnal_amplitude=0.05,
        wander_sigma=0.004,
        seed=seed,
    )
