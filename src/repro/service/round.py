"""The management round as a blackboard problem.

This module re-expresses the body of the historical
``SheriffSimulation.run_round`` as eight prioritized knowledge sources
over a :class:`RoundBlackboard`.  The engine publishes
:class:`~repro.service.events.RoundOpened` and one
:class:`~repro.service.events.AlertRaised` per alert on its bus, then
drives the controller to quiescence; the sources fire in strict
priority order — fault injection, census, alert dispatch, in-flight
landings, freeze-set, planning, FCFS commit, close — which is exactly
the statement order of the old monolithic method.  Every stage calls
the same underlying implementations (:class:`ShimManager`,
:class:`ReceiverRegistry`, the fault injector) in the same order with
the same arguments, so the decomposition is byte-identical to the
seed engine: identical ``RoundSummary`` values, final placements,
metric counters and obs-trace streams (``tests/service`` pins golden
values captured from the pre-service engine).  :class:`PlanSource` is
the whole of planning: it prepares the round-static state once (cost
cache, fleet snapshot) and calls
:meth:`~repro.migration.manager.ShimManager.process_round` for each
alerted rack in rack order.

Import discipline: this module must never import
:mod:`repro.sim.engine` at module scope — the engine imports *us* to
build its controller, and ``make lint``'s AST cycle checker enforces
the direction.  The blackboard carries the simulation handle instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.alerts.alert import Alert
from repro.cluster.snapshot import FleetSnapshot
from repro.errors import SimulationError
from repro.obs.events import AlertDelivered, MigrationAborted, MigrationLanded
from repro.service.blackboard import BlackboardController, KnowledgeSource
from repro.service.bus import EventBus
from repro.service.events import (
    AlertRaised,
    FaultInjected,
    MigrationCommitted,
    RackPlanned,
    RequestSent,
    RoundOpened,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps the import DAG
    from repro.migration.manager import RoundReport
    from repro.sim.engine import SheriffSimulation

__all__ = [
    "RoundBlackboard",
    "ROUND_KNOWLEDGE_SOURCES",
    "build_round_controller",
]


@dataclass
class RoundBlackboard:
    """Shared working state of one management round.

    Phase flags (``opened`` … ``closed``) gate the knowledge sources;
    the result fields are filled in as sources contribute and read back
    by the engine when it assembles the :class:`RoundSummary`.
    """

    sim: "SheriffSimulation"
    now: int
    vm_alerts: Dict[int, float]
    host_load: Optional[object] = None

    # --- ingest (fed by the bus subscription) ---
    ingest: List[Alert] = field(default_factory=list)

    # --- phase flags ---
    opened: bool = False
    faults_done: bool = False
    census_done: bool = False
    dispatched: bool = False
    landings_done: bool = False
    frozen: Optional[frozenset] = None
    planned: bool = False
    committed: bool = False
    closed: bool = False

    # --- results ---
    fault_info: Optional[object] = None
    std_before: float = 0.0
    by_rack: Dict[int, List[Alert]] = field(default_factory=dict)
    racks: List[int] = field(default_factory=list)
    skipped_racks: List[int] = field(default_factory=list)
    reports: List["RoundReport"] = field(default_factory=list)
    commit_failed: List[tuple] = field(default_factory=list)
    moved: List[Tuple[int, int]] = field(default_factory=list)
    std_after: float = 0.0
    degraded: bool = False


class FaultSource(KnowledgeSource):
    """Environment acts first: scheduled faults land before dispatch."""

    name = "faults"
    priority = 100
    triggers = ("RoundOpened",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.opened and not board.faults_done

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        board.faults_done = True
        if sim.faults is None:
            return
        with sim.profiler.section("faults"):
            board.fault_info = sim.faults.begin_round(board.now)
        info = board.fault_info
        if info.injected or info.degraded:
            bus.publish(
                FaultInjected(
                    round=board.now,
                    injected=info.injected,
                    degraded=info.degraded,
                )
            )


class CensusSource(KnowledgeSource):
    """Pre-action balance census: the std-dev the shims plan against."""

    name = "census"
    priority = 90
    triggers = ("RoundOpened",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.faults_done and not board.census_done

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        board.std_before = board.sim.cluster.workload_std()
        board.census_done = True


class DispatchSource(KnowledgeSource):
    """Group ingested alerts by rack and emit the delivery trace."""

    name = "dispatch"
    priority = 80
    triggers = ("AlertRaised",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.census_done and not board.dispatched

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        tracer = board.sim.tracer
        for alert in board.ingest:
            board.by_rack.setdefault(alert.rack, []).append(alert)
            if tracer.enabled:
                tracer.emit(
                    AlertDelivered(
                        rack=alert.rack,
                        alert_kind=alert.kind.name,
                        magnitude=float(alert.magnitude),
                        host=alert.host,
                        switch=alert.switch,
                    )
                )
        board.dispatched = True


class LandingSource(KnowledgeSource):
    """Timed engines: land migrations whose Fig. 2 window elapsed."""

    name = "landings"
    priority = 70
    triggers = ("RoundOpened",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.dispatched and not board.landings_done

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        if sim.inflight is not None:
            # the timed registry stamps reservations with the round index
            sim.receivers.set_round(board.now)
            tracer = sim.tracer
            # the landing mutates the placement, so the SLO accountant
            # reads each record's source host and timeline first
            due = sim.inflight.records_due(board.now) if sim.slo is not None else []
            for vm, host in sim.inflight.complete_due(board.now):
                # landing starts the post-migration cooldown
                sim._last_move[vm] = board.now
                sim.metrics.counter("sheriff_migrations_landed_total").inc()
                if tracer.enabled:
                    tracer.emit(MigrationLanded(vm=vm, dst_host=host))
            for rec in due:
                sim.slo.charge_downtime(rec.vm, rec.dst_host, timeline=rec.timeline)
                sim.slo.charge_stretch(rec.vm, rec.src_host, rec.dst_host)
        board.landings_done = True


class FreezeSource(KnowledgeSource):
    """Compute the round's frozen set (cooldown, in-flight, lost VMs)."""

    name = "freeze"
    priority = 60
    triggers = ("RoundOpened",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.landings_done and board.frozen is None

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        frozen = frozenset(
            vm
            for vm, moved_at in sim._last_move.items()
            if board.now - moved_at < sim.migration_cooldown
        )
        if sim.inflight is not None:
            frozen = frozen | sim.inflight.vms_in_flight
        if sim.faults is not None:
            lost = sim.cluster.placement.lost_vms
            if lost:
                frozen = frozen | frozenset(lost)
        board.frozen = frozen


class PlanSource(KnowledgeSource):
    """Per-shim Alg. 1, one alerted rack at a time in rack order.

    In the paper the shims run logically in parallel and Alg. 4's FCFS
    REQUEST/ACK is what serialises them; the simulator owes exactly that
    serialised order, deterministically.  What is round-static — the cost
    cache and the SoA fleet snapshot — is prepared once and shared
    read-only by every shim.
    """

    name = "plan"
    priority = 50
    triggers = ("AlertRaised",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.frozen is not None and not board.planned

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        racks = sorted(board.by_rack)
        for rack in racks:
            if rack not in sim.managers:
                raise SimulationError(f"alert addressed to unknown rack {rack}")
        if sim.faults is not None and sim.faults.down_racks:
            # a rack with a dead shim plans nothing this round; its
            # alerts are dropped (nobody is listening), not queued
            down = sim.faults.down_racks
            board.skipped_racks = [r for r in racks if r in down]
            racks = [r for r in racks if r not in down]
        board.racks = racks
        if racks:
            sim.cost_model.sync_cache()
            # fleet prime: one stacked Eq. (1) kernel for every VM the
            # shims could query, so per-rack block builds hit the cache
            # instead of looping the scalar kernel
            sim.cost_model.prime_cost_vectors(
                v for v in board.vm_alerts if v not in board.frozen
            )
            snapshot = FleetSnapshot(sim.cluster.placement)
            for rack in racks:
                report = sim.managers[rack].process_round(
                    board.by_rack[rack],
                    board.vm_alerts,
                    sim._port,
                    board.frozen,
                    board.host_load,
                    snapshot=snapshot,
                )
                board.reports.append(report)
                self._announce(board, bus, report)
        board.planned = True

    @staticmethod
    def _announce(board: RoundBlackboard, bus: EventBus, report) -> None:
        stats = report.migration
        if stats.requested:
            bus.publish(
                RequestSent(round=board.now, rack=report.rack, count=stats.requested)
            )
        bus.publish(
            RackPlanned(
                round=board.now,
                rack=report.rack,
                alerts_processed=report.alerts_processed,
                selected=tuple(report.selected_for_migration),
                requested=stats.requested,
                acked=stats.acked,
                rejected=stats.rejected,
            )
        )


class CommitSource(KnowledgeSource):
    """The round's FCFS commit (tolerant under a fault layer)."""

    name = "commit"
    priority = 40
    triggers = ("RackPlanned",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.planned and not board.committed

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        m = sim.metrics
        tracer = sim.tracer
        # instant engines mutate the placement in commit_round, so the SLO
        # accountant snapshots source hosts while the reservations are
        # still pending (timed engines charge at landing instead)
        pre_hosts: Dict[int, int] = {}
        if sim.slo is not None and sim.inflight is None:
            pl = sim.cluster.placement
            pre_hosts = {
                vm: int(pl.vm_host[vm]) for vm, _ in sim.receivers.reserved_moves
            }
        with sim.profiler.section("commit"):
            if sim.faults is not None:
                # degraded-mode commit: a reservation whose move fails
                # (destination crashed after the ACK, pre-copy cannot
                # converge) is rolled back and reported — the round
                # always completes, never half-applies
                moved, commit_failed = sim.receivers.commit_round_tolerant()
                board.commit_failed = commit_failed
                for vm, host, reason in commit_failed:
                    m.counter("sheriff_rollbacks_total").inc()
                    if tracer.enabled:
                        tracer.emit(
                            MigrationAborted(vm=vm, dst_host=host, reason=reason)
                        )
            else:
                moved = sim.receivers.commit_round()
        board.moved = moved
        m.counter("sheriff_migrations_committed_total").inc(len(moved))
        for vm, host in moved:
            bus.publish(MigrationCommitted(round=board.now, vm=vm, dst_host=host))
        if sim.inflight is None:
            for vm, host in moved:
                sim._last_move[vm] = board.now
                m.counter("sheriff_migrations_landed_total").inc()
                if tracer.enabled:
                    tracer.emit(MigrationLanded(vm=vm, dst_host=host))
            if sim.slo is not None:
                for vm, host in moved:
                    sim.slo.charge_downtime(vm, host)
                    sim.slo.charge_stretch(vm, pre_hosts[vm], host)
        board.committed = True


class CloseSource(KnowledgeSource):
    """Post-action census and degraded-mode bookkeeping."""

    name = "close"
    priority = 30
    triggers = ("MigrationCommitted",)

    def ready(self, board: RoundBlackboard) -> bool:
        return board.committed and not board.closed

    def run(self, board: RoundBlackboard, bus: EventBus) -> None:
        sim = board.sim
        m = sim.metrics
        if sim.slo is not None:
            # overload charges against the load the round ran with, plus
            # violation-episode bookkeeping
            sim.slo.charge_round(board.now, board.host_load)
        board.std_after = sim.cluster.workload_std()
        m.gauge("sheriff_workload_std").set(board.std_after)
        board.degraded = bool(board.skipped_racks) or bool(board.commit_failed) or (
            board.fault_info is not None and board.fault_info.degraded
        )
        if board.degraded:
            m.counter("sheriff_degraded_rounds_total").inc()
        board.closed = True


ROUND_KNOWLEDGE_SOURCES = (
    FaultSource,
    CensusSource,
    DispatchSource,
    LandingSource,
    FreezeSource,
    PlanSource,
    CommitSource,
    CloseSource,
)
"""The engine's knowledge sources in priority order (see docs/service.md)."""


def build_round_controller(
    sim: "SheriffSimulation", bus: Optional[EventBus] = None
) -> BlackboardController:
    """Wire the round knowledge sources and ingest subscriptions for *sim*.

    The controller's bus subscriptions are what make the cascade
    event-driven: :class:`RoundOpened` flips the blackboard's ``opened``
    flag (making :class:`FaultSource` ready) and every
    :class:`AlertRaised` appends to the blackboard's ingest list.  The
    engine binds a fresh :class:`RoundBlackboard` per round, publishes
    the round's events, and calls ``controller.run()``.
    """
    bus = bus if bus is not None else EventBus()
    controller = BlackboardController(
        bus, [klass() for klass in ROUND_KNOWLEDGE_SOURCES]
    )

    def _on_opened(event: RoundOpened) -> None:
        board = controller.board
        if board is not None:
            board.opened = True

    def _on_alert(event: AlertRaised) -> None:
        # ingest only lands on a bound round; serve-mode alerts arriving
        # between rounds are queued by the driver, not published early
        board = controller.board
        if board is not None and event.alert is not None:
            board.ingest.append(event.alert)

    bus.subscribe(RoundOpened, _on_opened)
    bus.subscribe(AlertRaised, _on_alert)
    return controller
