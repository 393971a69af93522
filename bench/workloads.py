"""The five benchmark workloads.

Every workload is a fat-tree cluster built with
``build_cluster(fill_fraction=0.5, seed=seed)`` and driven through the
public API at default ``SheriffConfig()`` unless its row says otherwise.
``bench.WHY`` records why each exists; ``bench/README.md`` has the long
form.  A builder does the whole set-up (topology, cluster, cost tables,
engine, manager warm-up / monitor fits) and returns a :class:`Run` whose
``prepare`` generates one round's inputs *outside* the timed interval and
whose ``step`` is the timed round: the program only ever receives the
generated inputs.

Sizes: ``full`` is what ``BENCHMARK.json`` measures; ``smoke`` is the
same code path at toy size for ``bench/tests``.  ``--seed`` reaches every
generator: cluster, surges, alert streams, monitor histories, fault
schedule and channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro import topology
from repro.alerts.monitor import VMMonitor
from repro.alerts.threshold import AlertConfig
from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.faults import ChannelPolicy, FaultKind, FaultSchedule, FaultSpec
from repro.obs.tracer import RecordingTracer
from repro.sim import scenario
from repro.sim.engine import SheriffSimulation
from repro.sim.inflight import MigrationTiming
from repro.sim.reactive import PredictiveManager
from repro.sim.scenarios import host_surges

from bench import NOMINAL_SECONDS, WHY
from bench.spans import SpanRecorder, span_profiler

OVERLOAD_THRESHOLD = 0.5
ALERT_FRACTION = 0.05


class Step(NamedTuple):
    """What one timed round hands back to the harness."""

    summary: Any
    alerts: int
    vm_alerts: int
    host_load: Optional[np.ndarray] = None


@dataclass
class Run:
    """A set-up workload, ready for its timed rounds."""

    cluster: Any
    sim: SheriffSimulation
    prepare: Callable[[int], Any]
    step: Callable[[int, Any], Step]
    tracer: Optional[RecordingTracer] = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Run]
    sizes: Dict[str, Dict[str, int]]
    fired: Sequence[str]
    """Span names that must have fired at least once in the timed section."""
    idle: Sequence[str]
    """Layer prefixes/spans that must have done nothing at all."""


def _fattree_cluster(rec: SpanRecorder, size, seed: int, delay_sensitive: float):
    with rec.span("topology.build"):
        topo = topology.build_fattree(size["k"])
    with rec.span("cluster.build"):
        return build_cluster(
            topo,
            hosts_per_rack=size["hosts_per_rack"],
            fill_fraction=0.5,
            seed=seed,
            delay_sensitive_fraction=delay_sensitive,
        )


def _alert_stream(cluster, seed: int) -> Callable[[int], Any]:
    """The Sec. VI-B stream: 5 % of VMs alert, redrawn every round."""

    def prepare(r: int):
        return scenario.inject_fraction_alerts(
            cluster, ALERT_FRACTION, time=r, seed=seed + r
        )

    return prepare


def _alert_round(sim: SheriffSimulation) -> Callable[[int, Any], Step]:
    def step(r: int, inputs) -> Step:
        alerts, vm_alerts = inputs
        return Step(sim.run_round(alerts, vm_alerts), len(alerts), len(vm_alerts))

    return step


# ---------------------------------------------------------------------- #
def build_managed_surge(size, rounds, seed, config, rec) -> Run:
    """The paper's closed loop: forecast refits own the round."""
    cluster = _fattree_cluster(rec, size, seed, delay_sensitive=0.0)
    warm = size["warm"]
    horizon = warm + rounds
    earliest = size["surge_earliest"]
    workload, _events = host_surges(
        cluster,
        horizon,
        fraction=0.05,
        earliest=earliest,
        latest=min(horizon, max(earliest + 1, horizon - 20)),
        seed=seed + 1,
    )
    sim = SheriffSimulation(cluster, config)
    manager = PredictiveManager(workload, threshold=OVERLOAD_THRESHOLD, horizon=3)
    for t in range(warm):
        manager.observe(t)

    def step(r: int, _inputs) -> Step:
        # the run_managed_simulation loop body, one round of it
        t = warm + r
        load = workload.host_load(t)
        alerts, magnitudes = manager.alerts_at(t)
        summary = sim.run_round(alerts, magnitudes, host_load=load)
        manager.observe(t)
        return Step(summary, len(alerts), len(magnitudes), load)

    return Run(cluster, sim, lambda r: None, step)


def build_plan_alerts(size, rounds, seed, config, rec) -> Run:
    """Plan-only engine round: the forecast layer does nothing."""
    cluster = _fattree_cluster(rec, size, seed, delay_sensitive=0.1)
    sim = SheriffSimulation(cluster, config)
    return Run(cluster, sim, _alert_stream(cluster, seed), _alert_round(sim))


def build_selector_fleet(size, rounds, seed, config, rec) -> Run:
    """Per-VM selectors: batched predict + Eq. (14) + staggered refits."""
    cluster = _fattree_cluster(rec, size, seed, delay_sensitive=0.1)
    pl = cluster.placement
    rng = np.random.default_rng(seed)
    history, stagger, stride = size["history"], size["stagger"], size["stride"]
    hot_racks = cluster.num_racks // 2
    vms = [
        v
        for v in range(cluster.num_vms)
        if int(pl.host_rack[pl.vm_host[v]]) < hot_racks
        and not pl.vm_delay_sensitive[v]
    ][::stride]
    alert_config = AlertConfig(threshold=0.75, horizon=1)
    monitors: Dict[int, VMMonitor] = {}
    future: Dict[int, np.ndarray] = {}
    for i, v in enumerate(vms):
        level = rng.uniform(0.25, 0.92)
        series = np.clip(
            level + 0.04 * rng.standard_normal((history + stagger + rounds, 4)),
            0.0,
            1.0,
        )
        monitor = VMMonitor(series[:history], alert_config)
        # a live fleet's refits are spread over the refit period, not
        # aligned on one round: monitor i starts i mod stagger rows in
        fed = history + i % stagger
        for row in series[history:fed]:
            monitor.observe(row)
        monitors[v] = monitor
        future[v] = series[fed:]
    sim = SheriffSimulation(cluster, config)

    def step(r: int, _inputs) -> Step:
        alerts, vm_alerts = scenario.forecast_alert_round(cluster, monitors, time=r)
        summary = sim.run_round(alerts, vm_alerts)
        for v, monitor in monitors.items():
            monitor.observe(future[v][r])
        return Step(summary, len(alerts), len(vm_alerts))

    return Run(cluster, sim, lambda r: None, step)


def build_degraded_traced(size, rounds, seed, config, rec) -> Run:
    """Everything opt-in switched on: faults, lossy channel, SLO, tracer."""
    cluster = _fattree_cluster(rec, size, seed, delay_sensitive=0.1)
    racks = cluster.num_racks
    specs = [FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.25)]
    for i, base in enumerate(range(5, rounds, 20)):
        switch = racks + i % 8  # an aggregation switch
        specs += [
            FaultSpec(FaultKind.SWITCH_FAIL, target=switch, at_round=base),
            FaultSpec(FaultKind.SWITCH_RECOVER, target=switch, at_round=base + 8),
            FaultSpec(
                FaultKind.SHIM_DOWN,
                target=(racks // 2 + i) % racks,
                at_round=base + 3,
                duration=2,
            ),
        ]
    tracer = RecordingTracer()
    sim = SheriffSimulation(
        cluster,
        config.replace(
            migration_timing=MigrationTiming(),
            with_flows=True,
            slo=True,
            tracer=tracer,
            channel_policy=ChannelPolicy(
                loss_probability=0.1, max_retries=3, seed=seed
            ),
            fault_schedule=FaultSchedule(specs, seed=seed),
        ),
    )
    return Run(
        cluster, sim, _alert_stream(cluster, seed), _alert_round(sim), tracer=tracer
    )


# ---------------------------------------------------------------------- #
_K8 = {"k": 8, "hosts_per_rack": 40}
_K4 = {"k": 4, "hosts_per_rack": 4}
_FORECAST_SPANS = (
    "forecast.refit", "forecast.fit", "forecast.predict", "forecast.observe",
)
_NO_FORECAST = (*_FORECAST_SPANS, "alerts.gate", "sim.manager_alerts",
                "sim.manager_observe", "sim.host_load")
_NO_OPT_IN = ("faults.begin_round", "slo.charge", "obs.emit", "sim.landings")
_PLAN_FIRED = (
    "service.round", "cluster.census", "migration.shim_round",
    "migration.priority", "migration.matching", "migration.request",
    "migration.commit", "costs.vector", "costs.sync",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "managed_surge_k8",
            build_managed_surge,
            {
                "full": {**_K8, "rounds": 100, "warm": 40, "surge_earliest": 50},
                "smoke": {**_K4, "rounds": 12, "warm": 14, "surge_earliest": 16},
            },
            fired=("sim.manager_alerts", "sim.manager_observe", "sim.host_load",
                   "forecast.refit", "forecast.predict", "service.round",
                   "cluster.census"),
            idle=("forecast.fit", "forecast.observe", "alerts.gate", *_NO_OPT_IN),
        ),
        Workload(
            "plan_alerts_k8",
            build_plan_alerts,
            {
                "full": {**_K8, "rounds": 400},
                "smoke": {**_K4, "rounds": 12},
            },
            fired=_PLAN_FIRED,
            idle=(*_NO_FORECAST, *_NO_OPT_IN),
        ),
        Workload(
            "selector_fleet_k8",
            build_selector_fleet,
            {
                "full": {**_K8, "rounds": 60, "history": 28, "stagger": 40,
                         "stride": 4},
                # every movable VM monitored, so some refits land in 12 rounds
                "smoke": {**_K4, "rounds": 12, "history": 28, "stagger": 40,
                          "stride": 1},
            },
            fired=("alerts.gate", "forecast.predict", "forecast.observe",
                   "forecast.refit", "service.round", "cluster.census"),
            idle=("sim.manager_alerts", "sim.manager_observe", "sim.host_load",
                  *_NO_OPT_IN),
        ),
        Workload(
            "ladder_k32",
            build_plan_alerts,
            {
                "full": {"k": 32, "hosts_per_rack": 3, "rounds": 200},
                "smoke": {"k": 4, "hosts_per_rack": 3, "rounds": 12},
            },
            fired=_PLAN_FIRED,
            idle=(*_NO_FORECAST, *_NO_OPT_IN),
        ),
        Workload(
            "degraded_traced_k8",
            build_degraded_traced,
            {
                "full": {**_K8, "rounds": 300},
                "smoke": {**_K4, "rounds": 12},
            },
            fired=(*_PLAN_FIRED, *_NO_OPT_IN),
            idle=_NO_FORECAST,
        ),
    )
}


assert tuple(WORKLOADS) == tuple(WHY)


def scaled_rounds(workload: Workload, scale: str, seconds: float) -> int:
    """Timed rounds of *workload* for a ``--seconds`` budget.

    A whole number of tens, so that the refit waves of the managed loop
    (every tenth round) stay exactly a tenth of the rounds.
    """
    nominal = workload.sizes[scale]["rounds"]
    if scale != "full":
        return nominal
    return max(10, 10 * round(nominal * seconds / (10 * NOMINAL_SECONDS)))


def base_config(rec: SpanRecorder) -> SheriffConfig:
    """Default config; the span pass only swaps in the span profiler."""
    if not rec.enabled:
        return SheriffConfig()
    return SheriffConfig(profiler=span_profiler(rec))
