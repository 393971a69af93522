"""Apply scheduled faults to a running simulation.

The injector is the bridge between a passive
:class:`~repro.faults.schedule.FaultSchedule` and the live engine state:
placement, in-flight tracker, flow table and cost model.  It holds the
simulation handle and reads ``sim.flow_table`` when a fault fires, so it
acts on the table the engine routes at that moment (one an outer loop
installed included); a rebuilt cost model is one assignment,
``sim.cost_model``, which the shim reads when a rack plans.
``begin_round(now)`` runs at the top of every managed round (before
alert dispatch) and applies whatever the schedule says is due:

* **HOST_CRASH** — in-flight migrations touching the host are aborted
  (their destination holds released), the host is marked dead, resident
  VMs are emergency-evacuated through the regular VMMIGRATION halves
  (a one-rack ``stack_cost_blocks``, then ``request_migrations``)
  against the rack's one-hop region (a private instant receiver commits
  them immediately), and whoever could not be placed is marked *lost* —
  frozen out of planning, capacity still booked on the dead host so
  accounting never drifts.  Lost VMs' flows are withdrawn from the
  engine's flow table.
* **HOST_RECOVER** — the host returns; its lost residents resume.
* **SHIM_DOWN / SHIM_UP** — the rack's delegation goes silent: the
  engine skips its planning, and (with an
  :class:`~repro.faults.channel.UnreliableChannel`) REQUESTs addressed
  to it time out into REJECT.  ``duration`` auto-recovers it.
* **MIGRATION_ABORT** — one in-flight migration rolls back its
  reservation (pre-copy failed mid-window).
* **SWITCH_FAIL / SWITCH_RECOVER** — the engine's flow table fails or
  recovers the switch (:meth:`~repro.migration.reroute.FlowTable.fail`
  reroutes or drops the flows through it, ``recover`` readmits them); an
  engine built without flows gets a flow-less table on its first switch
  event, so the table is always the one holder of the failed switches.
  The cost model is then rebuilt on the surviving fabric; a partitioned
  fabric keeps the old model and flags the round degraded instead of
  planning over infinities.

Every fired fault is appended to :attr:`FaultInjector.log` (JSON-ready
dicts — the chaos campaign report embeds it verbatim) and counted in the
round's :class:`RoundFaults`, with the rollbacks, evacuations and losses
it caused; the round adds those to the metrics in its one write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.snapshot import FleetSnapshot
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.migration.reports import RoundReports
from repro.migration.reroute import FlowTable
from repro.migration.request import ReceiverRegistry
from repro.migration.vmmigration import request_migrations, stack_cost_blocks
from repro.obs.events import FaultInjected, HostCrashed, MigrationAborted

__all__ = ["RoundFaults", "FaultInjector"]


@dataclass
class RoundFaults:
    """What the injector did at the top of one round (each fired fault is
    also in :attr:`FaultInjector.log`)."""

    injected: int = 0
    degraded: bool = False
    """A shim is down or a partition blocked cost-model replanning."""
    rollbacks: int = 0  # in-flight migrations aborted
    evacuated: int = 0  # residents of crashed hosts moved elsewhere
    lost: int = 0  # residents of crashed hosts nothing could take


class FaultInjector:
    """Bound to one :class:`~repro.sim.engine.SheriffSimulation`."""

    def __init__(self, sim, schedule: FaultSchedule) -> None:
        self.sim = sim
        self.schedule = schedule
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
            self.log.append(record)
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
        if kind in (FaultKind.SWITCH_FAIL, FaultKind.SWITCH_RECOVER):
            return self._switch_event(spec, rf)
        raise ConfigurationError(f"unhandled fault kind {kind}")

    # ------------------------------------------------------------------ #
    def _switch_event(self, spec: FaultSpec, rf: RoundFaults) -> str:
        """Fail or recover a switch in the engine's flow table, then
        rebuild Eq. (1) costs over the surviving fabric.

        An engine built without flows gets a flow-less table here, so the
        table is always the one holder of the failed switches.  A
        partitioned fabric cannot be replanned — keep the previous model
        (its routes may cross dead links, but the matching still
        terminates) and mark the round degraded.
        """
        sim = self.sim
        if sim.flow_table is None:
            sim.flow_table = FlowTable(sim.cluster.topology)
        table = sim.flow_table
        if spec.kind is FaultKind.SWITCH_FAIL:
            rerouted, dropped = table.fail(spec.target)
            detail = f"rerouted={rerouted} dropped={len(dropped)}"
        else:
            detail = f"readmitted={len(table.recover(spec.target))}"
        cut = len(table.disconnected_racks())
        if cut:
            rf.degraded = True
        else:
            sim.cost_model = CostModel(
                sim.cluster, available_bandwidth=table.available_bandwidth()
            )
        return f"{detail} partitioned={cut}"

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
            # The receiver shares the engine's tracker, so room held for an
            # in-flight arrival is not free to an evacuee.  The one-row
            # record is never written to metrics, which keeps the round's
            # REQUEST/ACK counters clean — evacuations are counted in the
            # round's RoundFaults.
            port = ReceiverRegistry(
                sim.cluster, tracker=sim.inflight, tracer=sim.tracer
            )
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
        rf.rollbacks += aborted
        rf.evacuated += len(evacuated)
        rf.lost += len(lost)
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
        if sim.tracer.enabled:
            sim.tracer.emit(
                MigrationAborted(
                    vm=vm, dst_host=rec.dst_host, reason="injected-abort"
                )
            )
        return f"vm={vm} dst={rec.dst_host}"
