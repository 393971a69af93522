"""The management round: eight stage functions over one :class:`RoundState`.

In the paper a round has exactly one legal order — ALERTs arrive, each
shim runs Alg. 1 (classify → PRIORITY → VMMIGRATION), Alg. 4's FCFS
REQUEST/ACK serialises them, accepted moves commit — so the order is a
constant, written down once as :data:`ROUND_STAGES`:
``inject_faults, census, dispatch, land, freeze, plan, commit, close``.
:meth:`SheriffSimulation.run_round <repro.sim.engine.SheriffSimulation.run_round>`
builds a :class:`RoundState` and calls them in that order; there is no
scheduler between the engine and the stages, and an exception raised in
one propagates to the caller as what it is.

Every stage calls the same underlying implementations
(:class:`ShimManager`, :class:`ReceiverRegistry`, the fault injector) in
the same order with the same arguments as the pre-service monolithic
round, so the decomposition is byte-identical to the seed engine:
identical ``RoundSummary`` values, final placements, metric counters and
obs-trace streams (``tests/service`` pins golden values captured from
it).  :func:`plan` is the whole of planning: it prepares the
round-static state once — cost cache, fleet snapshot, PRIORITY(F, 1) of
every host and the stacked Alg. 3 cost rows of every alerted rack — and
calls :meth:`~repro.migration.manager.ShimManager.process_round` for each
alerted rack in rack order.  The shims write their rows into the round's
one :class:`~repro.migration.reports.RoundReports`, frozen into arrays when
planning ends; their per-rack counter increments and histogram
observations are queued and applied once, in call order
(:meth:`~repro.obs.metrics.MetricsRegistry.deferred`).  A
:class:`~repro.service.events.RackPlanned` per rack goes to the
simulation's bus — an observer tap nothing in the round reads back — and
is built only when something subscribed to it; ``bus.counts`` counts one
per planned rack either way.

Import discipline: this module must never import
:mod:`repro.sim.engine` at module scope — the engine imports *us*, and
``make lint``'s AST cycle checker enforces the direction.  The state
carries the simulation handle instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.snapshot import FleetSnapshot
from repro.errors import SimulationError
from repro.migration.reports import RoundReports
from repro.migration.vmmigration import stack_cost_blocks
from repro.obs.events import MigrationAborted, MigrationLanded
from repro.service.events import RackPlanned

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps the import DAG
    from repro.sim.engine import SheriffSimulation

__all__ = ["RoundState", "ROUND_STAGES"]


@dataclass
class RoundState:
    """Working state of one management round.

    The inputs are set by the engine; the result fields are filled in as
    the stages run and read back by the engine when it assembles the
    :class:`RoundSummary`.
    """

    sim: "SheriffSimulation"
    now: int
    alerts: Sequence[Alert]
    vm_alerts: Dict[int, float]
    host_load: Optional[object] = None

    # --- results ---
    fault_info: Optional[object] = None
    std_before: float = 0.0
    by_rack: Dict[int, List[Alert]] = field(default_factory=dict)
    frozen: frozenset = frozenset()
    skipped_racks: List[int] = field(default_factory=list)
    reports: RoundReports = field(default_factory=RoundReports)
    commit_failed: List[tuple] = field(default_factory=list)
    std_after: float = 0.0
    degraded: bool = False


def inject_faults(state: RoundState) -> None:
    """Environment acts first: scheduled faults land before dispatch."""
    sim = state.sim
    if sim.faults is None:
        return
    with sim.profiler.section("faults"):
        state.fault_info = sim.faults.begin_round(state.now)


def census(state: RoundState) -> None:
    """Pre-action balance census: the std-dev the shims plan against."""
    state.std_before = state.sim.cluster.workload_std()


def dispatch(state: RoundState) -> None:
    """Group the round's alerts by rack and record their delivery."""
    by_rack = state.by_rack
    for alert in state.alerts:
        by_rack.setdefault(alert.rack, []).append(alert)
    tracer = state.sim.tracer
    if tracer.enabled:
        # one call for the round's deliveries, the same records as one
        # AlertDelivered emitted per alert
        tracer.emit_deliveries(state.alerts)


def land(state: RoundState) -> None:
    """Timed engines: land migrations whose Fig. 2 window elapsed."""
    sim = state.sim
    if sim.inflight is None:
        return
    # the timed registry stamps reservations with the round index
    sim.receivers.set_round(state.now)
    landed = sim.inflight.complete_due(state.now)
    if not landed:
        return
    tracer = sim.tracer
    counter = sim.metrics.counter("sheriff_migrations_landed_total")
    for rec in landed:
        # landing starts the post-migration cooldown
        sim._last_move[rec.vm] = state.now
        counter.inc()
        if tracer.enabled:
            tracer.emit(MigrationLanded(vm=rec.vm, dst_host=rec.dst_host))
    if sim.slo is not None:
        # each record keeps the source host and timeline the charges need
        for rec in landed:
            sim.slo.charge_downtime(rec.vm, rec.dst_host, timeline=rec.timeline)
            sim.slo.charge_stretch(rec.vm, rec.src_host, rec.dst_host)


def freeze(state: RoundState) -> None:
    """Compute the round's frozen set (cooldown, in-flight, lost VMs)."""
    sim = state.sim
    # ``now`` only increases, so a move that has left the cooldown window
    # can never freeze its VM again: forget it here, and the ledger stays
    # at the moves of the last ``migration_cooldown`` rounds
    sim._last_move = {
        vm: moved_at
        for vm, moved_at in sim._last_move.items()
        if state.now - moved_at < sim.migration_cooldown
    }
    frozen = frozenset(sim._last_move)
    if sim.inflight is not None:
        frozen = frozen | sim.inflight.vms_in_flight
    if sim.faults is not None:
        lost = sim.cluster.placement.lost_vms
        if lost:
            frozen = frozen | frozenset(lost)
    state.frozen = frozen


def plan(state: RoundState) -> None:
    """Per-shim Alg. 1, one alerted rack at a time in rack order.

    In the paper the shims run logically in parallel and Alg. 4's FCFS
    REQUEST/ACK is what serialises them; the simulator owes exactly that
    serialised order, deterministically.  What is round-static is
    prepared once, here, and shared read-only by every shim: the cost
    cache, the SoA fleet snapshot with its PRIORITY(F, 1) pick for every
    host, and — for the SERVER picks of all alerted racks, a rack's whole
    migration set unless it has a ToR alert — Alg. 3's cost rows and first
    minima in one stacked pass.  Only the REQUEST loop runs per rack.
    What the round records is paid per round too: one columnar
    ``RoundReports``, one application of the queued metric updates, and
    ``RackPlanned`` events only for a subscriber.
    """
    sim = state.sim
    racks = sorted(state.by_rack)
    for rack in racks:
        if rack not in sim.managers:
            raise SimulationError(f"alert addressed to unknown rack {rack}")
    if sim.faults is not None and sim.faults.down_racks:
        # a rack with a dead shim plans nothing this round; its
        # alerts are dropped (nobody is listening), not queued
        down = sim.faults.down_racks
        state.skipped_racks = [r for r in racks if r in down]
        racks = [r for r in racks if r not in down]
    if not racks:
        state.reports.freeze()
        return
    sim.cost_model.sync_cache()
    # fleet prime: one stacked Eq. (1) kernel call writes the regional
    # row of every VM the shims could query into the cost model's slab,
    # so per-rack block builds are fancy indexes of it
    sim.cost_model.prime_cost_vectors(
        v for v in state.vm_alerts if v not in state.frozen
    )
    snapshot = FleetSnapshot(sim.cluster.placement)
    with sim.profiler.section("priority"):
        winners, _ = snapshot.host_winners(state.vm_alerts)
    # each rack's SERVER picks, as its process_round will choose them
    picks = {}
    for rack in racks:
        chosen = dict.fromkeys(
            winners[a.host] for a in state.by_rack[rack] if a.kind is AlertKind.SERVER
        )
        picks[rack] = [vm for vm in chosen if vm >= 0 and vm not in state.frozen]
    blocks = stack_cost_blocks(
        sim.cluster,
        sim.cost_model,
        picks,
        snapshot,
        balance_weight=sim.config.balance_weight,
        host_load=state.host_load,
        slo_scorer=sim.slo_scorer,
    )
    reports = state.reports
    # an event nobody listens to is counted, never built
    listen = sim.bus.subscriber_count(RackPlanned)
    planned = 0
    try:
        with sim.metrics.deferred():
            for rack in racks:
                sim.managers[rack].process_round(
                    state.by_rack[rack],
                    state.vm_alerts,
                    sim._port,
                    state.frozen,
                    state.host_load,
                    snapshot=snapshot,
                    block=blocks.get(rack),
                    reports=reports,
                )
                planned += 1
                if listen:
                    alerts, selected, requested, acked, rejected = reports.planned()
                    sim.bus.publish(
                        RackPlanned(
                            round=state.now,
                            rack=rack,
                            alerts_processed=alerts,
                            selected=selected,
                            requested=requested,
                            acked=acked,
                            rejected=rejected,
                        )
                    )
    finally:
        reports.freeze()
        if planned and not listen:
            sim.bus.counts[RackPlanned.__name__] += planned


def commit(state: RoundState) -> None:
    """The round's FCFS commit (tolerant under a fault layer)."""
    sim = state.sim
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
            moved, state.commit_failed = sim.receivers.commit_round_tolerant()
            for vm, host, reason in state.commit_failed:
                m.counter("sheriff_rollbacks_total").inc()
                if tracer.enabled:
                    tracer.emit(
                        MigrationAborted(vm=vm, dst_host=host, reason=reason)
                    )
        else:
            moved = sim.receivers.commit_round()
    m.counter("sheriff_migrations_committed_total").inc(len(moved))
    if sim.inflight is None and moved:
        landed = m.counter("sheriff_migrations_landed_total")
        for vm, host in moved:
            sim._last_move[vm] = state.now
            landed.inc()
            if tracer.enabled:
                tracer.emit(MigrationLanded(vm=vm, dst_host=host))
        if sim.slo is not None:
            for vm, host in moved:
                sim.slo.charge_downtime(vm, host)
                sim.slo.charge_stretch(vm, pre_hosts[vm], host)


def close(state: RoundState) -> None:
    """Post-action census and degraded-mode bookkeeping."""
    sim = state.sim
    m = sim.metrics
    if sim.slo is not None:
        # overload charges against the load the round ran with, plus
        # violation-episode bookkeeping
        sim.slo.charge_round(state.now, state.host_load)
    state.std_after = sim.cluster.workload_std()
    m.gauge("sheriff_workload_std").set(state.std_after)
    state.degraded = bool(state.skipped_racks) or bool(state.commit_failed) or (
        state.fault_info is not None and state.fault_info.degraded
    )
    if state.degraded:
        m.counter("sheriff_degraded_rounds_total").inc()


ROUND_STAGES = (inject_faults, census, dispatch, land, freeze, plan, commit, close)
"""The round, in its one legal order (see docs/service.md)."""
