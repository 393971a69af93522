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
identical ``RoundSummary`` values, final placements and obs-trace
streams (``tests/service`` pins golden values captured from it).
:func:`plan` is the whole of planning: it prepares the round-static
state once — cost cache, fleet snapshot, PRIORITY(F, 1) of every host
and the stacked Alg. 3 cost rows and first matchings of every alerted
rack — and calls the simulation's one
:meth:`~repro.migration.manager.ShimManager.process_round` once, with
that snapshot and the round's one
:class:`~repro.migration.reports.RoundReports`.  It plans the racks in
rack order, as columns wherever the verdicts allow and the rest one at
a time, a row each; the rows are frozen into arrays when planning ends.
A :class:`~repro.service.events.RackPlanned` per rack goes to the
simulation's bus — an observer tap nothing in the round reads back — and
is built only when something subscribed to it; ``bus.counts`` counts one
per planned rack either way.

The stages count what the round did into the :class:`RoundState`; the
summary is built from it, and :meth:`RoundState.write_metrics`, called
once as the round ends, adds its totals to the metrics registry.

Import discipline: this module must never import
:mod:`repro.sim.engine` at module scope — the engine imports *us*, and
``make lint``'s AST cycle checker enforces the direction.  The state
carries the simulation handle instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.snapshot import FleetSnapshot
from repro.errors import SimulationError
from repro.migration.reports import RoundReports
from repro.migration.vmmigration import stack_cost_blocks
from repro.obs.events import AlertDelivered, MigrationAborted, MigrationLanded
from repro.obs.metrics import MetricsRegistry
from repro.service.events import RackPlanned

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps the import DAG
    from repro.sim.engine import SheriffSimulation
    from repro.slo.accounting import SloRound

__all__ = ["RoundState", "ROUND_STAGES"]


@dataclass
class RoundState:
    """Working state of one management round, and its record.

    The inputs are set by the engine; the result fields are filled in as
    the stages run and read back by the engine when it assembles the
    :class:`RoundSummary` and writes the round's metrics.
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
    std_after: Optional[float] = None  # None until close ran
    degraded: bool = False
    committed: int = 0
    landed: int = 0
    retries: int = 0
    timeouts: int = 0
    rollbacks: int = 0
    slo: Optional["SloRound"] = None

    def write_metrics(
        self, metrics: MetricsRegistry, added: Optional[Dict[str, float]] = None
    ) -> None:
        """Add the round's totals to *metrics*; given *added*, also put
        there what was added (``name{labels}`` to its amount, a
        histogram's the sum it observed): the round's ``--metrics-out``
        line.

        The round and alert counters are added every round, the others
        when they have something to add (the evacuation pair together).
        """

        def add(amount, name: str, **labels: str) -> None:
            counter = metrics.counter(name, **labels)
            counter.inc(amount)
            if added is not None:
                added[str(counter)] = float(amount)

        add(1, "sheriff_rounds_total")
        add(len(self.alerts), "sheriff_alerts_total")
        faults = self.fault_info
        if faults is not None and (faults.evacuated or faults.lost):
            add(faults.evacuated, "sheriff_vms_evacuated_total")
            add(faults.lost, "sheriff_vms_lost_total")
        self.reports.write_metrics(metrics, added)
        for amount, name in (
            (faults.injected if faults else 0, "sheriff_faults_injected_total"),
            (self.retries, "sheriff_channel_retries_total"),
            (self.timeouts, "sheriff_request_timeouts_total"),
            (self.rollbacks, "sheriff_rollbacks_total"),
            (self.committed, "sheriff_migrations_committed_total"),
            (self.landed, "sheriff_migrations_landed_total"),
            (int(self.degraded), "sheriff_degraded_rounds_total"),
        ):
            if amount:
                add(amount, name)
        slo = self.slo
        if slo is not None:
            for (tenant, source), minutes in slo.minutes.items():
                add(
                    minutes, "sheriff_slo_violation_minutes_total",
                    tenant=tenant, source=source,
                )
            for tenant, batches in slo.latency_ms.items():
                values = np.concatenate(batches)
                hist = metrics.histogram("sheriff_slo_request_latency", tenant=tenant)
                hist.observe_many(values)
                if added is not None:
                    added[str(hist)] = float(np.cumsum(values)[-1])
            for tenant in slo.exhausted:
                add(1, "sheriff_slo_budget_exhausted_total", tenant=tenant)
        if self.std_after is not None:
            metrics.gauge("sheriff_workload_std").set(self.std_after)


def inject_faults(state: RoundState) -> None:
    """Environment acts first: scheduled faults land before dispatch."""
    sim = state.sim
    if sim.faults is None:
        return
    with sim.profiler.section("faults"):
        state.fault_info = sim.faults.begin_round(state.now)
    state.rollbacks += state.fault_info.rollbacks


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
        tracer.record(AlertDelivered, *map(AlertDelivered.values_of, state.alerts))


def land(state: RoundState) -> None:
    """Timed engines: land migrations whose Fig. 2 window elapsed."""
    sim = state.sim
    if sim.inflight is None:
        return
    landed = sim.inflight.complete_due(state.now)
    if not landed:
        return
    vms = [rec.vm for rec in landed]
    dst_hosts = [rec.dst_host for rec in landed]
    # landing starts the post-migration cooldown
    sim._last_move.update(dict.fromkeys(vms, state.now))
    state.landed += len(landed)
    if sim.tracer.enabled:
        sim.tracer.record(MigrationLanded, *zip(vms, dst_hosts))
    if sim.slo is not None:
        # each record keeps the source host and timeline the charges need
        sim.slo.charge_moves(
            vms,
            [rec.src_host for rec in landed],
            dst_hosts,
            downtimes=[rec.timeline.downtime for rec in landed],
        )


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
    """Per-shim Alg. 1 for every alerted rack, in rack order.

    In the paper the shims run logically in parallel and Alg. 4's FCFS
    REQUEST/ACK is what serialises them; the simulator owes exactly that
    serialised order, deterministically.  What is round-static is
    prepared once, here, and shared read-only by every shim: the cost
    cache, the SoA fleet snapshot with its PRIORITY(F, 1) pick for every
    host, and — for the SERVER picks of every alerted rack with no ToR
    alert, its whole migration set — Alg. 3's cost rows, first minima and
    first matchings in one stacked pass.  The shim's one
    ``process_round`` admits every rack's first matching as columns and
    runs the REQUEST loop (and a rack's retries) for the racks whose
    verdicts the sequential loop could change; a rack whose alerts are all SERVER
    alerts for its own hosts migrates exactly its picks, and any other
    runs Alg. 1 itself (a rack with a ToR alert builds its own block).
    What the round records is paid per round too: one columnar
    ``RoundReports``, the lossy channel's counts taken into the round's
    state once, and ``RackPlanned`` events only for a subscriber.
    """
    sim = state.sim
    racks = sorted(state.by_rack)
    num_hosts = sim.cluster.placement.num_hosts
    server, local_tor = AlertKind.SERVER, AlertKind.LOCAL_TOR
    # one walk checks every alert and keeps each rack's SERVER hosts; a
    # rack with a ToR alert keeps none, as its migration set is not known
    # until its shim has run PRIORITY(F, beta).  A rack with any other
    # alert than a SERVER alert for its own host is mixed: its picks are
    # not its whole migration set
    alerted_hosts, mixed = {}, set()
    num_racks = sim.cluster.num_racks
    host_rack = sim.cluster.placement.host_rack.item
    for rack in racks:
        if not 0 <= rack < num_racks:
            raise SimulationError(f"alert addressed to unknown rack {rack}")
        hosts = []
        tor = False
        for a in state.by_rack[rack]:
            if a.kind is server:
                if not 0 <= a.host < num_hosts:
                    raise SimulationError(f"server alert for unknown host {a.host}")
                hosts.append(a.host)
                if host_rack(a.host) != rack:
                    mixed.add(rack)
            else:
                mixed.add(rack)
                tor = tor or a.kind is local_tor
        alerted_hosts[rack] = () if tor else hosts
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
    snapshot = FleetSnapshot(sim.cluster.placement)
    with sim.profiler.section("priority"):
        winners, _ = snapshot.host_winners(state.vm_alerts)
    # each rack's SERVER picks, as its shim would choose them
    frozen = state.frozen
    picks = {}
    for rack in racks:
        chosen = dict.fromkeys(map(winners.__getitem__, alerted_hosts[rack]))
        picks[rack] = [vm for vm in chosen if vm >= 0 and vm not in frozen]
    blocks = stack_cost_blocks(
        sim.cluster,
        sim.cost_model,
        picks,
        snapshot,
        balance_weight=sim.config.balance_weight,
        host_load=state.host_load,
        slo_scorer=sim.slo_scorer,
        profiler=sim.profiler,
    )
    reports = state.reports
    try:
        sim.shim.process_round(
            state.by_rack,
            racks,
            state.vm_alerts,
            sim._port,
            frozen,
            state.host_load,
            snapshot,
            reports,
            blocks,
            mixed,
        )
    finally:
        reports.freeze()
        if sim.channel is not None:
            state.retries, state.timeouts, expired = sim.channel.take_counts()
            state.rollbacks += expired
        _announce(sim.bus, state.now, reports)


def _announce(bus, now: int, reports: RoundReports) -> None:
    """A :class:`RackPlanned` per planned rack; counted, never built,
    when nothing subscribed to it."""
    if not len(reports):
        return
    if not bus.subscriber_count(RackPlanned):
        bus.counts[RackPlanned.__name__] += len(reports)
        return
    names = ("rack", "alerts_processed", "requested", "acked", "rejected")
    ptr, selected = reports.selected_ptr.tolist(), reports.selected.tolist()
    for i, row in enumerate(zip(*(getattr(reports, c).tolist() for c in names))):
        bus.publish(RackPlanned(
            round=now, selected=tuple(selected[ptr[i] : ptr[i + 1]]),
            **dict(zip(names, row)),
        ))


def commit(state: RoundState) -> None:
    """The round's FCFS commit (tolerant under a fault layer)."""
    sim = state.sim
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
            moved, state.commit_failed = sim.receivers.commit_round_tolerant(
                state.now
            )
            state.rollbacks += len(state.commit_failed)
            for vm, host, reason in state.commit_failed:
                if tracer.enabled:
                    tracer.emit(
                        MigrationAborted(vm=vm, dst_host=host, reason=reason)
                    )
        else:
            moved = sim.receivers.commit_round(state.now)
    state.committed = len(moved)
    if sim.inflight is None and moved:
        vms = [vm for vm, _ in moved]
        sim._last_move.update(dict.fromkeys(vms, state.now))
        state.landed += len(moved)
        if tracer.enabled:
            tracer.record(MigrationLanded, *moved)
        if sim.slo is not None:
            sim.slo.charge_moves(
                vms, [pre_hosts[vm] for vm in vms], [host for _, host in moved]
            )


def close(state: RoundState) -> None:
    """Post-action census and degraded-mode bookkeeping."""
    sim = state.sim
    if sim.slo is not None:
        # overload charges against the load the round ran with, plus
        # violation-episode bookkeeping
        sim.slo.charge_round(state.now, state.host_load)
    state.std_after = sim.cluster.workload_std()
    state.degraded = bool(state.skipped_racks) or bool(state.commit_failed) or (
        state.fault_info is not None and state.fault_info.degraded
    )


ROUND_STAGES = (inject_faults, census, dispatch, land, freeze, plan, commit, close)
"""The round, in its one legal order (see docs/service.md)."""
