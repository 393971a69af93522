"""Adversarial campaign: the fallback governor's worst-case bound, shown.

:func:`run_adversarial_campaign` runs three arms over identical clusters,
fault schedules and deceptive calm-then-cliff workloads
(:func:`repro.traces.adversarial_streams` — engineered so the whole
forecast pool is wrong in the damaging direction at every regime change):

* ``reactive`` — the paper's contingency baseline, no forecasts at all;
* ``predictive`` — an unguarded :class:`~repro.sim.reactive.PredictiveManager`,
  i.e. pre-alerting that trusts the (systematically wrong) forecasts;
* ``guarded`` — the same predictive manager under
  ``fallback_policy="reactive"``, so the
  :class:`~repro.sim.fallback.FallbackManager` degrades to the reactive
  floor once trailing forecast error crosses the bound.

The report's ``bound`` section asserts the worst-case contract: on the
damage metrics (host-overload rounds and VMs lost to the fault schedule)
the guarded arm stays within ``factor`` times the reactive baseline plus
an absolute ``slack`` — no matter how wrong the models are, the governor
caps the downside at "reactive plus a detection window".  Like the chaos
campaign, everything derives from ``seed`` and the report holds no
wall-clock timing, so two runs with the same arguments produce
byte-identical JSON (the ``make adversarial`` target asserts that with
``cmp``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = ["run_adversarial_campaign"]


def _arm_schedule(placement, rounds: int, *, seed: int, crashes: int = 3) -> FaultSchedule:
    """The shared per-arm fault schedule (rebuilt fresh for each arm).

    The *crashes* fullest hosts (by built-time occupancy — identical
    across arms since every arm rebuilds the same seeded cluster) crash
    together a third of the way in.  Evacuating several packed hosts at
    once saturates their one-hop regions, so ``vms_lost`` genuinely
    depends on where each policy's migrations have put VMs by then.  A
    small per-round in-flight abort probability runs throughout.
    """
    counts = np.bincount(placement.vm_host, minlength=placement.num_hosts)
    targets = np.argsort(-counts, kind="stable")[:crashes]
    at = max(1, rounds // 3)
    specs = [
        FaultSpec(FaultKind.HOST_CRASH, target=int(t), at_round=at)
        for t in targets
    ]
    specs.append(FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.15))
    return FaultSchedule(specs, seed=seed)


def _run_arm(
    *,
    arm: str,
    size: int,
    warm: int,
    rounds: int,
    seed: int,
    threshold: float,
    period: int,
    spike_len: int,
    cfg_base: SheriffConfig,
) -> dict:
    """One arm on a freshly built, identically seeded cluster/workload."""
    from repro.cluster import build_cluster
    from repro.sim.driver import run_managed_simulation
    from repro.sim.engine import SheriffSimulation
    from repro.sim.inflight import MigrationTiming
    from repro.sim.reactive import (
        DemandDrivenWorkload,
        PredictiveManager,
        ReactiveManager,
    )
    from repro.topology import build_fattree
    from repro.traces.adversarial import adversarial_streams

    topo = build_fattree(size)
    cluster = build_cluster(
        topo,
        hosts_per_rack=4,
        fill_fraction=0.9,
        skew=1.05,
        seed=seed,
        delay_sensitive_fraction=0.0,
    )
    streams = adversarial_streams(
        cluster.num_vms,
        warm + rounds,
        period=period,
        spike_len=spike_len,
        seed=seed,
    )
    workload = DemandDrivenWorkload(
        cluster, {vm: s for vm, s in enumerate(streams)}
    )
    cfg = cfg_base.replace(
        fault_schedule=_arm_schedule(cluster.placement, rounds, seed=seed),
        migration_timing=MigrationTiming(),
        fallback_policy="reactive" if arm == "guarded" else "none",
    )
    sim = SheriffSimulation(cluster, cfg)
    if arm == "reactive":
        manager = ReactiveManager(workload, threshold=threshold)
    else:
        manager = PredictiveManager(workload, threshold=threshold)
    report = run_managed_simulation(
        sim,
        workload,
        manager,
        warm=warm,
        horizon=warm + rounds,
        overload_threshold=threshold,
    )
    return {
        "overload_rounds": report.overload_rounds,
        "migrations": report.migrations,
        "total_cost": round(report.total_cost, 9),
        "vms_lost": len(cluster.placement.lost_vms),
        "first_alert_round": report.first_alert_round,
        "fallback_rounds": report.fallback_rounds,
        "fallback_transitions": report.fallback_transitions,
    }


def _metric_bound(guarded: dict, reactive: dict, key: str, factor: float, slack: float) -> dict:
    limit = factor * reactive[key] + slack
    return {
        "guarded": guarded[key],
        "reactive": reactive[key],
        "limit": round(limit, 9),
        "holds": guarded[key] <= limit,
    }


def run_adversarial_campaign(
    *,
    size: int = 4,
    rounds: int = 36,
    warm: int = 16,
    seed: int = 2015,
    overload_threshold: float = 0.7,
    period: int = 12,
    spike_len: int = 3,
    factor: float = 1.5,
    slack: float = 2.0,
    error_bound: float = 0.08,
    window: int = 6,
    recovery_rounds: int = 4,
    config: Optional[SheriffConfig] = None,
) -> dict:
    """Run the three arms; return the JSON-ready report with the bound.

    Parameters
    ----------
    factor, slack:
        The worst-case contract: guarded damage must be at most
        ``factor * reactive + slack`` on each bound metric.
    error_bound, window, recovery_rounds:
        Fallback hysteresis for the guarded arm (overrides the same
        fields of *config*); the defaults are tight enough that the
        calm-then-cliff regime trips the governor within one period.
    config:
        Extra engine knobs shared by all arms; the campaign installs the
        fault schedule and fallback policy per arm on top.
    """
    if rounds < 2 * period:
        raise ConfigurationError(
            f"need rounds >= 2 * period for the regime to repeat, "
            f"got {rounds}/{period}"
        )
    if warm < 6:
        raise ConfigurationError(f"warm must be >= 6, got {warm}")
    if factor < 1.0:
        raise ConfigurationError(f"factor must be >= 1, got {factor}")
    if slack < 0.0:
        raise ConfigurationError(f"slack must be >= 0, got {slack}")
    cfg_base = (config if config is not None else SheriffConfig()).replace(
        fallback_error_bound=error_bound,
        fallback_window=window,
        fallback_recovery_rounds=recovery_rounds,
    )
    arms = {}
    for arm in ("reactive", "predictive", "guarded"):
        arms[arm] = _run_arm(
            arm=arm,
            size=size,
            warm=warm,
            rounds=rounds,
            seed=seed,
            threshold=overload_threshold,
            period=period,
            spike_len=spike_len,
            cfg_base=cfg_base,
        )
    bound = {
        "factor": factor,
        "slack": slack,
        "overload_rounds": _metric_bound(
            arms["guarded"], arms["reactive"], "overload_rounds", factor, slack
        ),
        "vms_lost": _metric_bound(
            arms["guarded"], arms["reactive"], "vms_lost", factor, slack
        ),
    }
    bound["holds"] = bound["overload_rounds"]["holds"] and bound["vms_lost"]["holds"]
    return {
        "campaign": {
            "size": size,
            "rounds": rounds,
            "warm": warm,
            "seed": seed,
            "overload_threshold": overload_threshold,
            "period": period,
            "spike_len": spike_len,
            "error_bound": error_bound,
            "window": window,
            "recovery_rounds": recovery_rounds,
        },
        "arms": arms,
        "bound": bound,
    }
