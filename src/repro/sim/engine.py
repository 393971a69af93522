"""The Sheriff simulation engine.

One :class:`SheriffSimulation` owns a cluster, a cost model, an optional
flow table, the shared receiver registry and one
:class:`~repro.migration.manager.ShimManager`, which runs Alg. 1 for
whichever rack is alerted against the engine's own cost model and flow
table (a ``SWITCH_FAIL`` rebuild or an external table is one assignment,
``sim.cost_model = ...`` / ``sim.flow_table = ...``).  A *round* is:
deliver alerts → every alerted rack's shim runs Alg. 1 (selection +
matching + REQUEST) → commit accepted migrations → record metrics.  In
the paper the shims run logically in parallel and the FCFS receiver
protocol (Alg. 4) is what serialises their reservations; the engine
reproduces exactly that serialised order — one alerted rack at a time,
in rack order, on the calling thread.  There is no other planner and no
option that selects one (``docs/performance.md`` records what the worker
pools measured before they were deleted).

A round is eight function calls: :meth:`SheriffSimulation.run_round`
builds one :class:`~repro.service.round.RoundState` and calls the
stages of :data:`~repro.service.round.ROUND_STAGES` in their one legal
order (faults → census → dispatch → landings → freeze → plan → commit →
close) — the statement order of the historical monolithic round, so all
byte-identity contracts hold.  The simulation's
:class:`~repro.service.bus.EventBus` (``sim.bus``) is an observer tap:
the engine publishes ``RoundOpened``, one ``RackPlanned`` per planned
rack and ``RoundClosed`` on it and reads nothing back.  A default
simulation has no subscriber, and then no ``RackPlanned`` is built at
all — ``bus.counts`` still counts one per planned rack.  ``repro serve``
drives the same ``run_round`` for continuous alert ingestion (see
``docs/service.md``).

A round is one record: ``RoundSummary.reports`` is a columnar
:class:`~repro.migration.reports.RoundReports` (one row per planned rack,
frozen into numpy arrays), whose ``RoundReport`` views are built only when
something reads them — so ``history`` holds a few objects per round, not
a few per alerted rack.

Observability: the engine threads one :class:`~repro.obs.tracer.Tracer`,
one :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.profiling.Profiler` through the shim, the receiver
protocol and VMMIGRATION.  :class:`RoundSummary` is built from the
round's own record (:class:`~repro.service.round.RoundState` and its
per-rack reports); as the round ends, raised or not, one write adds that
record's totals to the registry, which nothing reads back.
``RoundSummary.timings`` carries the per-round wall-clock
breakdown (``priority`` / ``matching`` / ``request`` / ``commit`` ...).
Configuration arrives as one :class:`~repro.config.SheriffConfig`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.alerts.alert import Alert
from repro.cluster.cluster import Cluster
from repro.config import SheriffConfig
from repro.costs.model import CostModel
from repro.errors import ConfigurationError, SimulationError
from repro.migration.manager import RoundReports, ShimManager
from repro.migration.request import ReceiverRegistry
from repro.migration.reroute import FlowTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
from repro.service.bus import EventBus
from repro.service.events import RoundClosed, RoundOpened
from repro.service.round import ROUND_STAGES, RoundState
from repro.sim.inflight import InFlightTracker, MigrationTiming

__all__ = ["RoundSummary", "SheriffSimulation"]


@dataclass
class RoundSummary:
    """Aggregated outcome of one management round."""

    round_index: int
    alerts: int
    migrations: int
    requests: int
    rejects: int
    total_cost: float
    search_space: int
    unplaced: int
    """Candidates no shim could place this round (retried next round)."""
    workload_std_before: float
    workload_std_after: float
    reports: RoundReports = field(default_factory=RoundReports)
    """The round's per-rack record (one row per planned rack, as columns)."""
    timings: Dict[str, float] = field(default_factory=dict)
    """Per-round wall-clock seconds by section (empty when profiling off)."""
    faults: int = 0
    """Scheduled faults injected this round (0 without a fault layer)."""
    retries: int = 0
    """REQUEST retransmissions over the lossy channel this round."""
    rollbacks: int = 0
    """Reservations/migrations rolled back this round (aborts, lease
    expiries, commit failures)."""
    degraded: bool = False
    """A shim was down, a partition blocked replanning, or a commit was
    partially refused — the round completed in degraded mode."""
    pool: Dict[str, float] = field(default_factory=dict)
    """Always ``{}``: planning is always inline.  Kept only because
    ``bench/worker.py`` still reads it; remove it together with the
    ``parallel.pool_rounds`` metric in the next benchmark PR."""
    slo_violation_minutes: float = 0.0
    """SLO-violation-minutes charged this round (0 without the SLO layer)."""
    slo_by_class: Dict[str, float] = field(default_factory=dict)
    """This round's violation-minutes per tenant class (empty when off)."""


class SheriffSimulation:
    """Distributed (regional) Sheriff over one cluster.

    Parameters
    ----------
    cluster:
        Shared cluster state (mutated by committed migrations).
    config:
        One :class:`~repro.config.SheriffConfig` bundling every knob plus
        the ``tracer``/``metrics`` observability handles; ``None`` runs
        the defaults.
    """

    def __init__(
        self, cluster: Cluster, config: Optional[SheriffConfig] = None
    ) -> None:
        cfg = config if config is not None else SheriffConfig()
        self.config = cfg
        self.tracer = cfg.tracer
        self.metrics: MetricsRegistry = (
            cfg.metrics if cfg.metrics is not None else MetricsRegistry()
        )
        self.profiler = cfg.profiler if cfg.profiler is not None else Profiler()
        self.cluster = cluster
        self.cost_model = CostModel(cluster)
        self.inflight: Optional[InFlightTracker] = None
        if cfg.migration_timing is not None:
            # live-migration windows: accepted moves reserve the destination
            # now and land after the Fig. 2 timeline elapses
            self.inflight = InFlightTracker(cluster, cfg.migration_timing)
        self.receivers = ReceiverRegistry(
            cluster, tracker=self.inflight, tracer=self.tracer
        )
        self.flow_table: Optional[FlowTable] = None
        if cfg.with_flows:
            self.flow_table = FlowTable(cluster.topology)
            self._populate_flows()
        # SLO layer — like the fault layer, only constructed when asked,
        # so default simulations never import repro.slo and stay
        # byte-identical to an SLO-free build
        if cfg.scoring not in ("network", "slo"):
            raise ConfigurationError(
                f'scoring must be "network" or "slo", got {cfg.scoring!r}'
            )
        self.slo = None
        self.slo_scorer = None
        if cfg.slo or cfg.scoring == "slo":
            from repro.slo import SloAccountant, SloModel, SloScorer

            slo_model = SloModel.from_cluster(cluster)
            timing = (
                cfg.migration_timing
                if cfg.migration_timing is not None
                else MigrationTiming()
            )
            if cfg.slo:
                self.slo = SloAccountant(
                    slo_model,
                    cluster,
                    rack_distances=self.cost_model.rack_distances,
                    timing=timing,
                    tracer=self.tracer,
                    overload_threshold=cfg.slo_overload_threshold,
                    budget_minutes=cfg.slo_budget_minutes,
                )
            if cfg.scoring == "slo":
                self.slo_scorer = SloScorer(slo_model, timing)
        # Alg. 1 for every rack, over this engine's cost model and flow
        # table as they are when a rack plans
        self.shim = ShimManager(self)
        self.history: List[RoundSummary] = []
        self.migration_cooldown = cfg.migration_cooldown
        self._last_move: Dict[int, int] = {}
        # observer tap (see docs/service.md): the round publishes on it and
        # reads nothing back; subscribe from outside to watch the rounds
        self.bus = EventBus()
        # fault layer — only constructed when configured, so fault-free
        # simulations take exactly the historical code paths (the PR 2
        # byte-identity contract).  Imported lazily to keep sim <-> faults
        # cycle-free.
        self.faults = None
        self.channel = None
        self._port: ReceiverRegistry = self.receivers
        if cfg.fault_schedule is not None or cfg.channel_policy is not None:
            from repro.faults.channel import UnreliableChannel
            from repro.faults.injector import FaultInjector
            from repro.faults.schedule import FaultSchedule

            schedule = (
                cfg.fault_schedule
                if cfg.fault_schedule is not None
                else FaultSchedule()
            )
            self.faults = FaultInjector(self, schedule)
            if cfg.channel_policy is not None:
                self.channel = self._port = UnreliableChannel(
                    self.receivers,
                    cfg.channel_policy,
                    is_rack_down=self.faults.is_rack_down,
                    tracer=self.tracer,
                )

    def _populate_flows(self) -> None:
        """One flow of rate 0.05 per inter-rack dependency pair, attributed
        to the lower VM."""
        assert self.flow_table is not None
        pl = self.cluster.placement
        racks = pl.host_rack[pl.vm_host]
        # deps.pairs() enumerates (a, b) with a < b in the same lexicographic
        # order the old nested loop visited, so flow ids are unchanged
        pairs = self.cluster.dependencies.pairs()
        if pairs.size == 0:
            return
        ra = racks[pairs[:, 0]]
        rb = racks[pairs[:, 1]]
        inter = ra != rb
        for vm, src, dst in zip(pairs[inter, 0], ra[inter], rb[inter]):
            self.flow_table.add_flow(int(vm), int(src), int(dst), 0.05)

    def close(self) -> None:
        """Nothing to release; kept so drivers can close every engine alike."""

    # ------------------------------------------------------------------ #
    def run_round(
        self,
        alerts: Sequence[Alert],
        vm_alerts: Dict[int, float],
        host_load: Optional[np.ndarray] = None,
    ) -> RoundSummary:
        """Execute one management round.

        Parameters
        ----------
        alerts:
            All alert messages of the round (any rack).
        vm_alerts:
            Per-VM ALERT magnitudes for PRIORITY.
        host_load:
            Optional measured per-host utilization (demand-driven runs);
            steers migration destinations toward genuinely cool hosts.
        """
        if self.receivers.pending:
            raise SimulationError("uncommitted reservations from a previous round")
        # the round index: computed once, shared by the timed-migration
        # bookkeeping in the stages and the summary record (they can
        # never disagree)
        now = len(self.history)
        self.tracer.begin_round(now)
        self.profiler.begin_round(now)
        state = RoundState(
            sim=self,
            now=now,
            alerts=alerts,
            vm_alerts=vm_alerts,
            host_load=host_load,
        )
        with self.profiler.section("round"):
            try:
                self.bus.publish(RoundOpened(round=now, alerts=len(alerts)))
                for stage in ROUND_STAGES:
                    stage(state)
            finally:
                if self.slo is not None:
                    state.slo = self.slo.take_round()
                # the --metrics-out amounts only for an open stream
                added = None if self.config.metrics_stream is None else {}
                state.write_metrics(self.metrics, added)
        reports = state.reports
        slo_minutes, slo_by_class = (
            state.slo.totals() if state.slo is not None else (0.0, {})
        )
        summary = RoundSummary(
            round_index=now,
            alerts=len(alerts),
            migrations=reports.total("acked"),
            requests=reports.total("requested"),
            rejects=reports.total("rejected"),
            total_cost=reports.total("total_cost"),
            search_space=reports.total("search_space"),
            unplaced=len(reports.unplaced),
            workload_std_before=state.std_before,
            workload_std_after=state.std_after,
            reports=reports,
            timings=self.profiler.round_timings(),
            faults=state.fault_info.injected if state.fault_info is not None else 0,
            retries=state.retries,
            rollbacks=state.rollbacks,
            degraded=state.degraded,
            slo_violation_minutes=slo_minutes,
            slo_by_class=slo_by_class,
        )
        self.history.append(summary)
        if self.config.metrics_stream is not None:
            # one line per round: what the round's write added to the
            # registry, streamed next to the event trace
            self.config.metrics_stream.write(
                json.dumps({"round": now, "metrics": added}) + "\n"
            )
        self.bus.publish(
            RoundClosed(
                round=now,
                alerts=summary.alerts,
                migrations=summary.migrations,
                total_cost=summary.total_cost,
                degraded=summary.degraded,
            )
        )
        return summary

    # ------------------------------------------------------------------ #
    def workload_std_series(self) -> np.ndarray:
        """Std-dev after each completed round (prepended with the start)."""
        if not self.history:
            return np.asarray([self.cluster.workload_std()])
        first = self.history[0].workload_std_before
        return np.asarray([first] + [s.workload_std_after for s in self.history])

    def timing_breakdown(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds per profiled section."""
        return dict(self.profiler.totals)
