"""Round-based DCN management simulator (Sec. VI-B).

The simulator advances in management rounds of ``T`` seconds.  Each round
alerts are produced (injected per the paper's "5 % of VMs alert" rule,
derived from demand via the reactive/predictive managers, or emerging
from flow load via the congestion module), every shim runs Alg. 1, the
receiver protocol commits accepted migrations, and metrics are recorded.

Managers and baselines: `regional` (per-shim Alg. 3 planning),
`centralized` (global optimal matching, Figs. 11–14 comparator),
`kmedian_planner` (the Sec. V-A reduction pipeline), `reactive`
(contingency) and `PredictiveManager` (pre-alert) over demand-driven
workloads.  Infrastructure: `scenario`/`scenarios` (alert & demand
generation), `driver` (managed-run loop), `fullstack` (closed loop over
all three alert paths), `inflight` (live-migration windows),
`congestion`/`latency` (switch load & queueing delay).  Switch death is
the flow table's (:meth:`~repro.migration.reroute.FlowTable.fail` /
``recover``), driven by the fault layer's ``SWITCH_FAIL`` /
``SWITCH_RECOVER``.  Per-round measurements live on :class:`RoundSummary`.
"""

from repro.config import SheriffConfig
from repro.sim.engine import RoundSummary, SheriffSimulation
from repro.sim.scenario import forecast_alert_round, inject_fraction_alerts
from repro.sim.centralized import CentralizedPlan, centralized_migration_round
from repro.sim.regional import regional_migration_round
from repro.sim.kmedian_planner import kmedian_migration_round
from repro.sim.fallback import FallbackManager
from repro.sim.reactive import PredictiveManager, ReactiveManager
from repro.sim.congestion import congestion_alerts, hot_switches, switch_capacity
from repro.sim.driver import AlertSource, ManagedRunReport, run_managed_simulation
from repro.sim.fullstack import FullStackRound, FullStackSimulation
from repro.sim.inflight import InFlightTracker, MigrationTiming
from repro.sim.latency import flow_latencies, latency_percentiles, switch_delay_factors
from repro.sim.scenarios import (
    SurgeEvent,
    creeping_growth,
    flash_crowd,
    host_surges,
)

__all__ = [
    "SheriffSimulation",
    "SheriffConfig",
    "RoundSummary",
    "inject_fraction_alerts",
    "forecast_alert_round",
    "centralized_migration_round",
    "regional_migration_round",
    "kmedian_migration_round",
    "CentralizedPlan",
    "ReactiveManager",
    "PredictiveManager",
    "FallbackManager",
    "congestion_alerts",
    "hot_switches",
    "switch_capacity",
    "ManagedRunReport",
    "run_managed_simulation",
    "AlertSource",
    "SurgeEvent",
    "host_surges",
    "flash_crowd",
    "creeping_growth",
    "switch_delay_factors",
    "flow_latencies",
    "latency_percentiles",
    "FullStackSimulation",
    "FullStackRound",
    "MigrationTiming",
    "InFlightTracker",
]
