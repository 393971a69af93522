"""Seeded chaos campaigns: a reproducible robustness experiment in a box.

:func:`run_chaos_campaign` builds a cluster, arms a fault schedule and a
lossy channel, drives the managed simulation for a fixed number of
rounds, and returns one JSON-ready report.  Everything — the workload,
the alert stream, every fault firing, every retry — derives from the
single campaign ``seed``, so two runs with the same arguments produce
*identical* reports (the ``make chaos`` target asserts exactly that with
``cmp``).  Timings are deliberately excluded (``profile=False``): a
report is a statement about behavior, not wall-clock.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.faults.channel import ChannelPolicy
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = ["default_schedule", "run_chaos_campaign"]


def default_schedule(
    num_hosts: int, num_racks: int, rounds: int, *, seed: int = 0
) -> FaultSchedule:
    """The standard small campaign: one of everything, sized to the cluster.

    A mid-fleet host crashes early (recovering near the end), a mid-fleet
    shim goes dark for two rounds, the first aggregation switch dies and
    comes back, and in-flight migrations abort with small per-round
    probability throughout.
    """
    if num_hosts < 2 or num_racks < 2 or rounds < 6:
        raise ConfigurationError(
            "default_schedule needs >= 2 hosts, >= 2 racks and >= 6 rounds"
        )
    host = num_hosts // 2
    rack = num_racks // 2
    switch = num_racks  # first switch node id (nodes 0..num_racks-1 are ToRs)
    return FaultSchedule(
        [
            FaultSpec(FaultKind.HOST_CRASH, target=host, at_round=2),
            FaultSpec(FaultKind.SHIM_DOWN, target=rack, at_round=3, duration=2),
            FaultSpec(FaultKind.SWITCH_FAIL, target=switch, at_round=4),
            FaultSpec(
                FaultKind.SWITCH_RECOVER, target=switch, at_round=rounds - 2
            ),
            FaultSpec(
                FaultKind.HOST_RECOVER, target=host, at_round=rounds - 1
            ),
            FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.25),
        ],
        seed=seed,
    )


def run_chaos_campaign(
    *,
    topology: str = "fattree",
    size: int = 4,
    rounds: int = 12,
    seed: int = 2015,
    alert_fraction: float = 0.1,
    schedule: Optional[FaultSchedule] = None,
    channel: Optional[ChannelPolicy] = None,
    config: Optional[SheriffConfig] = None,
) -> dict:
    """Run one seeded campaign; return the JSON-ready report.

    Parameters
    ----------
    schedule:
        ``None`` arms :func:`default_schedule` (derived from the cluster
        shape and *seed*).
    channel:
        ``None`` arms a mildly lossy channel (10 % loss, 3 retries).
    config:
        Extra engine knobs; the campaign forces ``profile=False`` and
        installs the schedule/channel, timing and flows on top.
    """
    from repro.cluster import build_cluster
    from repro.sim.engine import SheriffSimulation
    from repro.sim.inflight import MigrationTiming
    from repro.sim.scenario import inject_fraction_alerts
    from repro.topology import build_bcube, build_fattree

    if topology == "fattree":
        topo = build_fattree(size)
        hosts_per_rack = 4
    elif topology == "bcube":
        topo = build_bcube(size)
        hosts_per_rack = max(2, size)
    else:
        raise ConfigurationError(f"unknown topology {topology!r}")
    cluster = build_cluster(
        topo,
        hosts_per_rack=hosts_per_rack,
        fill_fraction=0.5,
        skew=1.1,
        seed=seed,
        delay_sensitive_fraction=0.0,
    )
    pl = cluster.placement
    if schedule is None:
        schedule = default_schedule(
            pl.num_hosts, cluster.num_racks, rounds, seed=seed
        )
    if channel is None:
        channel = ChannelPolicy(loss_probability=0.1, max_retries=3, seed=seed)
    cfg = (config if config is not None else SheriffConfig()).replace(
        fault_schedule=schedule,
        channel_policy=channel,
        migration_timing=MigrationTiming(),
        with_flows=True,
        profile=False,
    )
    sim = SheriffSimulation(cluster, cfg)
    round_rows = []
    for r in range(rounds):
        alerts, vma = inject_fraction_alerts(
            cluster, alert_fraction, time=r, seed=seed + r
        )
        s = sim.run_round(alerts, vma)
        round_rows.append(
            {
                "round": s.round_index,
                "alerts": s.alerts,
                "migrations": s.migrations,
                "requests": s.requests,
                "rejects": s.rejects,
                "faults": s.faults,
                "retries": s.retries,
                "rollbacks": s.rollbacks,
                "degraded": s.degraded,
                "workload_std_after": round(s.workload_std_after, 9),
            }
        )
    assert sim.faults is not None
    return {
        "campaign": {
            "topology": topology,
            "size": size,
            "rounds": rounds,
            "seed": seed,
            "alert_fraction": alert_fraction,
            "faults_scheduled": len(schedule),
            "channel_loss": channel.loss_probability,
        },
        "rounds": round_rows,
        "faults_log": sim.faults.log,
        "totals": {
            "faults_injected": sum(r["faults"] for r in round_rows),
            "retries": sum(r["retries"] for r in round_rows),
            "rollbacks": sum(r["rollbacks"] for r in round_rows),
            "degraded_rounds": sum(1 for r in round_rows if r["degraded"]),
            "migrations": sum(r["migrations"] for r in round_rows),
            "vms_lost": len(cluster.placement.lost_vms),
            "final_workload_std": round(cluster.workload_std(), 9),
        },
    }
