"""Apply scheduled faults to a running simulation.

The injector is the bridge between a passive
:class:`~repro.faults.schedule.FaultSchedule` and the live engine state:
placement, in-flight tracker, flow table, cost model and the per-rack
shim managers.  ``begin_round(now)`` runs at the top of every managed
round (before alert dispatch) and applies whatever the schedule says is
due:

* **HOST_CRASH** — in-flight migrations touching the host are aborted
  (their destination holds released), the host is marked dead, resident
  VMs are emergency-evacuated through the regular VMMIGRATION halves
  (a one-rack ``stack_cost_blocks``, then ``request_migrations``)
  against the rack's one-hop region (a private instant receiver commits
  them immediately), and whoever could not be placed is marked *lost* —
  frozen out of planning, capacity still booked on the dead host so
  accounting never drifts.  Lost VMs' flows are withdrawn.
* **HOST_RECOVER** — the host returns; its lost residents resume.
* **SHIM_DOWN / SHIM_UP** — the rack's delegation goes silent: the
  engine skips its planning, and (with an
  :class:`~repro.faults.channel.UnreliableChannel`) REQUESTs addressed
  to it time out into REJECT.  ``duration`` auto-recovers it.
* **MIGRATION_ABORT** — one in-flight migration rolls back its
  reservation (pre-copy failed mid-window).
* **SWITCH_FAIL / SWITCH_RECOVER** — delegated to
  :class:`~repro.sim.failures.FailureInjector` (flow reroute/drop and
  re-admission), then the cost model is rebuilt on the surviving fabric;
  a partitioned fabric keeps the old model and flags the round degraded
  instead of planning over infinities.

Every fired fault is appended to :attr:`FaultInjector.log` (JSON-ready
dicts — the chaos campaign report embeds it verbatim) and counted in the
``sheriff_faults_injected_total`` metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.snapshot import FleetSnapshot
from repro.errors import ConfigurationError, TopologyError
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.migration.reports import RoundReports
from repro.migration.request import ReceiverRegistry
from repro.migration.vmmigration import request_migrations, stack_cost_blocks
from repro.obs.events import FaultInjected, HostCrashed, MigrationAborted
from repro.sim.failures import FailureInjector

__all__ = ["RoundFaults", "FaultInjector"]


@dataclass
class RoundFaults:
    """What the injector did at the top of one round."""

    injected: int = 0
    rollbacks: int = 0
    evacuated: int = 0
    lost: int = 0
    degraded: bool = False
    """A shim is down or a partition blocked cost-model replanning."""
    details: List[dict] = field(default_factory=list)


class FaultInjector:
    """Bound to one :class:`~repro.sim.engine.SheriffSimulation`."""

    def __init__(self, sim, schedule: FaultSchedule) -> None:
        self.sim = sim
        self.schedule = schedule
        self.switches = FailureInjector(sim.cluster, flow_table=sim.flow_table)
        self._down_racks: Dict[int, Optional[int]] = {}  # rack -> up round
        self.log: List[dict] = []

    # ------------------------------------------------------------------ #
    def is_rack_down(self, rack: int) -> bool:
        return rack in self._down_racks

    @property
    def down_racks(self) -> frozenset:
        return frozenset(self._down_racks)

    # ------------------------------------------------------------------ #
    def begin_round(self, now: int) -> RoundFaults:
        """Recover expired shim outages, then apply due faults."""
        rf = RoundFaults()
        for rack, up_round in sorted(self._down_racks.items()):
            if up_round is not None and up_round <= now:
                del self._down_racks[rack]
        for index, spec in self.schedule.due(now):
            detail = self._apply(spec, now, rf)
            rf.injected += 1
            record = {
                "round": now,
                "spec": index,
                "kind": spec.kind.value,
                "target": spec.target,
                "detail": detail,
            }
            rf.details.append(record)
            self.log.append(record)
            self.sim.metrics.counter("sheriff_faults_injected_total").inc()
            if self.sim.tracer.enabled:
                self.sim.tracer.emit(
                    FaultInjected(
                        fault_kind=spec.kind.value,
                        target=spec.target,
                        detail=detail,
                    )
                )
        if self._down_racks:
            rf.degraded = True
        return rf

    def _apply(self, spec: FaultSpec, now: int, rf: RoundFaults) -> str:
        kind = spec.kind
        if kind is FaultKind.HOST_CRASH:
            return self._crash_host(spec.target, rf)
        if kind is FaultKind.HOST_RECOVER:
            return self._recover_host(spec.target)
        if kind is FaultKind.SHIM_DOWN:
            up = now + spec.duration if spec.duration is not None else None
            self._down_racks[spec.target] = up
            rf.degraded = True
            return "until-shim-up" if up is None else f"until-round-{up}"
        if kind is FaultKind.SHIM_UP:
            self._down_racks.pop(spec.target, None)
            return "shim restored"
        if kind is FaultKind.MIGRATION_ABORT:
            return self._abort_migration(spec.target, rf)
        if kind is FaultKind.SWITCH_FAIL:
            report = self.switches.fail(spec.target)
            self._refresh_cost_model(rf)
            return (
                f"rerouted={report.flows_rerouted} "
                f"dropped={len(report.flows_dropped)} "
                f"partitioned={len(report.racks_disconnected)}"
            )
        if kind is FaultKind.SWITCH_RECOVER:
            report = self.switches.recover(spec.target)
            self._refresh_cost_model(rf)
            return (
                f"readmitted={len(report.flows_readmitted)} "
                f"partitioned={len(report.racks_disconnected)}"
            )
        raise ConfigurationError(f"unhandled fault kind {kind}")

    # ------------------------------------------------------------------ #
    def _refresh_cost_model(self, rf: RoundFaults) -> None:
        """Rebuild Eq. (1) costs over the surviving fabric.

        A partitioned fabric cannot be replanned — keep the previous
        model (its routes may cross dead links, but the matching still
        terminates) and mark the round degraded.
        """
        try:
            model = self.switches.rebuild_cost_model()
        except TopologyError:
            rf.degraded = True
            return
        self.sim.cost_model = model
        for manager in self.sim.managers.values():
            manager.cost_model = model

    def _crash_host(self, host: int, rf: RoundFaults) -> str:
        sim = self.sim
        pl = sim.cluster.placement
        aborted = 0
        if sim.inflight is not None:
            for vm in sorted(sim.inflight.vms_in_flight):
                rec = sim.inflight._active[vm]
                if rec.dst_host == host or rec.src_host == host:
                    sim.inflight.abort(vm)
                    aborted += 1
                    rf.rollbacks += 1
                    sim.metrics.counter("sheriff_rollbacks_total").inc()
                    if sim.tracer.enabled:
                        sim.tracer.emit(
                            MigrationAborted(
                                vm=vm, dst_host=rec.dst_host,
                                reason="host-crash",
                            )
                        )
        pl.disable_host(host)
        residents = [int(v) for v in pl.vms_on_host(host)]
        evacuated: List[int] = []
        if residents:
            rack = int(pl.host_rack[host])
            # emergency evacuation: the regular Alg. 3 matching against the
            # rack's one-hop region, committed instantly through a private
            # receiver so the placement reflects the rescue immediately.
            # The one-row record is never written to metrics, which keeps
            # the round's REQUEST/ACK counters clean — evacuations are
            # accounted by their own counters below.
            port = ReceiverRegistry(sim.cluster, tracer=sim.tracer)
            if sim.inflight is not None:
                # room reserved for an in-flight arrival is not free: an
                # evacuee ACKed onto it makes that arrival's landing
                # overflow the host
                for dst in sim.managers[rack].shim.candidate_hosts().tolist():
                    held = sim.inflight.hold_on(dst)
                    if held:
                        port.promise(dst, held)
            block = stack_cost_blocks(
                sim.cluster,
                sim.cost_model,
                {rack: residents},
                FleetSnapshot(pl),
                balance_weight=sim.config.balance_weight,
            )[rack]
            reports = RoundReports()
            reports.add_row(-1, selected=residents)
            # rack=None: the trace keeps the evacuation out of every
            # alert group
            request_migrations(block, port, reports=reports, tracer=sim.tracer)
            moved, _failed = port.commit_round_tolerant()
            evacuated = [vm for vm, _h in moved]
        lost = [vm for vm in residents if int(pl.vm_host[vm]) == host]
        for vm in lost:
            pl.mark_lost(vm)
        if sim.flow_table is not None and lost:
            lost_set = set(lost)
            for fid, flow in list(sim.flow_table.flows.items()):
                if flow.vm in lost_set:
                    sim.flow_table.remove_flow(fid)
        rf.evacuated += len(evacuated)
        rf.lost += len(lost)
        sim.metrics.counter("sheriff_vms_evacuated_total").inc(len(evacuated))
        sim.metrics.counter("sheriff_vms_lost_total").inc(len(lost))
        if sim.tracer.enabled:
            sim.tracer.emit(
                HostCrashed(
                    host=host, evacuated=tuple(evacuated), lost=tuple(lost)
                )
            )
        return (
            f"aborted={aborted} evacuated={len(evacuated)} lost={len(lost)}"
        )

    def _recover_host(self, host: int) -> str:
        pl = self.sim.cluster.placement
        pl.enable_host(host)
        restored = [
            vm for vm in sorted(pl.lost_vms) if int(pl.vm_host[vm]) == host
        ]
        for vm in restored:
            pl.restore_lost(vm)
        return f"restored={len(restored)}"

    def _abort_migration(self, target: int, rf: RoundFaults) -> str:
        sim = self.sim
        if sim.inflight is None:
            return "no-op: instant-commit engine"
        active = sorted(sim.inflight.vms_in_flight)
        if not active:
            return "no-op: nothing in flight"
        vm = target if target in active else active[0]
        rec = sim.inflight.abort(vm)
        rf.rollbacks += 1
        sim.metrics.counter("sheriff_rollbacks_total").inc()
        if sim.tracer.enabled:
            sim.tracer.emit(
                MigrationAborted(
                    vm=vm, dst_host=rec.dst_host, reason="injected-abort"
                )
            )
        return f"vm={vm} dst={rec.dst_host}"
