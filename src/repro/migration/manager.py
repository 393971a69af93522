"""Pre-Alert Management Procedure (Alg. 1) — the shim framework.

Every delegation node runs Alg. 1 over the fleet's one shared state, so
a simulation holds one :class:`ShimManager` and calls it per alerted
rack.  Each round it takes the alerts addressed to that rack and
dispatches on their kind:

* **outer switch** — collect local VMs whose flows cross the hot switch,
  PRIORITY(F, α), and reroute those flows (cheaper than migration, so it
  runs first — Sec. III-B);
* **local host** — PRIORITY(F, 1): the single highest-ALERT VM on that
  host joins the migration set;
* **local ToR** — aggregated after the loop: PRIORITY over the whole
  rack with the β budget of the ToR capacity (Eq. 10).

and finally runs VMMIGRATION (Alg. 3) on the migration set against the
one-hop neighbor racks.  The engine's plan stage calls
:meth:`ShimManager.process_round` once a round, and it plans the alerted
racks in rack order — the order Alg. 4's FCFS REQUESTs owe: as columns,
from the round's stacked Alg. 3 rows and first matchings, every rack
with SERVER alerts only whose first matching is wholly ACKed — through
the lossy channel, answered too — and cannot meet an earlier rack's
REQUESTs (see :func:`~repro.migration.vmmigration.request_racks`); each
other rack on
its own, a rack with SERVER alerts only from its stack rows and any
other through :meth:`ShimManager.plan_rack`.  What does not depend on
the rack order is computed once per round and only read here: a SERVER
alert's PRIORITY(F, 1) is a lookup in the round's
:class:`~repro.cluster.snapshot.FleetSnapshot` host table, and a rack's
cost rows are its rows of the engine's
:func:`~repro.migration.vmmigration.stack_cost_blocks` (a rack whose
migration set they do not hold — the β picks of a ToR alert — builds its
own as a one-rack stack).  The shim holds the simulation handle and reads
the engine's cost model and flow table when a rack plans, so a
``SWITCH_FAIL`` rebuild or an external flow table (``sim.flow_table =
ft``) is one assignment on the engine; FLOWREROUTE's detours avoid the
switches that table holds as failed.  Each rack's outcome is a row of
the round's :class:`~repro.migration.reports.RoundReports`, from which
the engine writes the round's per-rack metrics in one call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.cluster import TOR_CAPACITY
from repro.cluster.snapshot import FleetSnapshot
from repro.errors import ConfigurationError
from repro.migration.priority import CandidateVM, PriorityFactor, priority_select
from repro.migration.reports import RoundReport, RoundReports
from repro.migration.request import ReceiverRegistry
from repro.migration.reroute import flow_reroute
from repro.migration.vmmigration import (
    CostStack,
    RackCostBlock,
    request_migrations,
    request_racks,
    stack_cost_blocks,
)
from repro.obs.events import FlowRerouted, PrioritySelected

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps the import DAG
    from repro.sim.engine import SheriffSimulation

__all__ = ["RoundReport", "RoundReports", "ShimManager"]

#: β of Eq. (10): the share of the ToR capacity a ToR alert migrates.
BETA = 0.1


class ShimManager:
    """Alg. 1 for every delegation node of one simulation.

    Parameters
    ----------
    sim:
        The simulation whose cluster, cost model, flow table, SLO scorer
        and observability handles the shim reads.  Its configuration's
        ``alpha`` is the capacity portion for switch-triggered rerouting;
        ToR-triggered migration takes :data:`BETA` ("different portion
        of capacity for migration since it is not necessary to migrate
        all VMs").  Without a flow table, outer-switch alerts are counted
        but produce no reroutes.
    """

    def __init__(self, sim: "SheriffSimulation") -> None:
        alpha = sim.config.alpha
        if not (0.0 < alpha <= 1.0):
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.sim = sim

    # ------------------------------------------------------------------ #
    def process_round(
        self,
        by_rack: Dict[int, Sequence[Alert]],
        racks: Sequence[int],
        vm_alerts: Dict[int, float],
        receivers: ReceiverRegistry,
        frozen: frozenset,
        host_load,
        snapshot: FleetSnapshot,
        reports: RoundReports,
        stack: CostStack,
        mixed: Set[int],
    ) -> None:
        """Alg. 1 for *racks* (ascending), a row each in *reports*.

        *stack* is the round's stacked Alg. 3 over every rack's SERVER
        picks.  A rack not in *mixed* has SERVER alerts for its own hosts
        only, so its picks are its migration set:
        :func:`~repro.migration.vmmigration.request_racks` plans it as
        columns where its verdicts allow, else from its stack rows.
        :meth:`plan_rack` plans each rack in *mixed*.
        """
        sim = self.sim
        tracer, profiler = sim.tracer, sim.profiler
        preamble = None
        if tracer.enabled:
            winners, candidates = snapshot.host_winners(vm_alerts)

            def preamble(rack: int) -> None:
                # plan_rack's PRIORITY(F, 1) rows, one per alert, in one call
                tracer.record(PrioritySelected, *(
                    (rack, "ONE", 1, candidates[h], (vm,) if vm >= 0 else ())
                    for h, vm in ((a.host, winners[a.host]) for a in by_rack[rack])
                ))

        def plan_one(rack: int) -> None:
            if rack in mixed:
                self.plan_rack(
                    rack, by_rack[rack], vm_alerts, receivers, frozen, host_load,
                    snapshot, reports, stack.get(rack),
                )
                return
            if preamble is not None:
                preamble(rack)
            vms = stack.vms[rack]
            damage = self._predicted_damage(vms) if vms else 0.0
            reports.add_row(rack, len(by_rack[rack]), 0, 0, damage, vms)
            if vms:
                request_migrations(
                    stack[rack], receivers, reports=reports, tracer=tracer,
                    profiler=profiler, rack=rack,
                )

        request_racks(
            stack, receivers, reports, racks, plan_one, held=mixed,
            alerts_processed=[len(by_rack[rack]) for rack in racks],
            preamble=preamble, tracer=tracer, profiler=profiler,
        )

    def plan_rack(
        self,
        rack: int,
        alerts: Sequence[Alert],
        vm_alerts: Dict[int, float],
        receivers: ReceiverRegistry,
        frozen: frozenset,
        host_load,
        snapshot: FleetSnapshot,
        reports: RoundReports,
        block: Optional[RackCostBlock] = None,
    ) -> None:
        """Run Alg. 1 for the shim of *rack*; append its row to *reports*.

        Parameters
        ----------
        rack:
            The delegation node planning.
        alerts:
            Alert messages addressed to this rack this round.
        vm_alerts:
            Per-VM ALERT magnitudes (from the monitors), used by PRIORITY.
        receivers:
            The round's shared REQUEST/ACK state.
        frozen:
            VMs that may not migrate this round — typically VMs still inside
            their live-migration window (Fig. 2's t1-t4 spans multiple
            rounds); excluding them prevents migration ping-pong.
        host_load:
            Measured per-host utilization for destination steering, or
            ``None`` (see :func:`repro.migration.vmmigration.stack_cost_blocks`).
        snapshot:
            The round's shared :class:`FleetSnapshot`.
        reports:
            The round's :class:`RoundReports`; this rack's row is appended.
        block:
            This rack's rows of the round's
            :func:`~repro.migration.vmmigration.stack_cost_blocks`.  Used
            when it was built for exactly the migration set chosen here;
            otherwise, and without one, the shim stacks its own rack alone.
        """
        sim = self.sim
        tracer = sim.tracer
        profiler = sim.profiler
        flow_table = sim.flow_table
        winners = candidates = None  # the host table, read once per call
        alerts_processed = rerouted = failed = 0
        migrate_set: List[int] = []
        reroute_flow_ids: List[int] = []
        hot_switches: Set[int] = set()
        tor_alerted = False

        traced = tracer.enabled
        server, local_tor = AlertKind.SERVER, AlertKind.LOCAL_TOR
        for alert in alerts:
            if alert.rack != rack:
                raise ConfigurationError(
                    f"alert for rack {alert.rack} delivered to shim {rack}"
                )
            alerts_processed += 1
            kind = alert.kind
            if kind is server:
                host = alert.host
                assert host is not None
                if snapshot.host_rack[host] != rack:
                    raise ConfigurationError(
                        f"server alert for host {host} outside rack {rack}"
                    )
                # PRIORITY(F, 1): the host table holds every host's pick
                if winners is None:
                    winners, candidates = snapshot.host_winners(vm_alerts)
                vm = winners[host]
                if vm >= 0:
                    migrate_set.append(vm)
                if traced:
                    # rack, factor, budget, candidates, selected
                    tracer.record(
                        PrioritySelected,
                        (rack, "ONE", 1, candidates[host], (vm,) if vm >= 0 else ()),
                    )
            elif kind is local_tor:
                tor_alerted = True
            elif kind is AlertKind.OUTER_SWITCH:
                assert alert.switch is not None
                hot_switches.add(alert.switch)
                if flow_table is not None:
                    flows = flow_table.flows_through(alert.switch, from_rack=rack)
                    cands = snapshot.candidates([f.vm for f in flows], vm_alerts)
                    budget = max(1, int(sim.config.alpha * TOR_CAPACITY))
                    chosen = self._priority(rack, PriorityFactor.ALPHA, budget, cands)
                    chosen_vms = {c.vm_id for c in chosen}
                    reroute_flow_ids.extend(
                        f.flow_id for f in flows if f.vm in chosen_vms
                    )

        if tor_alerted:
            cands = snapshot.candidates(snapshot.vms_in_rack(rack), vm_alerts)
            budget = max(1, int(BETA * TOR_CAPACITY))
            chosen = self._priority(rack, PriorityFactor.BETA, budget, cands)
            migrate_set.extend(c.vm_id for c in chosen)

        # rerouting first — cheaper and faster than migration (Sec. III-B)
        if reroute_flow_ids and flow_table is not None:
            with profiler.section("reroute"):
                rerouted, failed = flow_reroute(
                    flow_table, reroute_flow_ids, hot_switches
                )
            if tracer.enabled:
                tracer.emit(
                    FlowRerouted(
                        rack=rack,
                        rerouted=rerouted,
                        failed=failed,
                        flows=tuple(reroute_flow_ids),
                        hot_switches=tuple(sorted(hot_switches)),
                    )
                )

        migrate_set = [v for v in dict.fromkeys(migrate_set) if v not in frozen]
        damage = self._predicted_damage(migrate_set) if migrate_set else 0.0
        reports.add_row(rack, alerts_processed, rerouted, failed, damage, migrate_set)
        if not migrate_set:
            return
        if block is None or block.vms != migrate_set:
            block = stack_cost_blocks(
                sim.cluster,
                sim.cost_model,
                {rack: migrate_set},
                snapshot,
                balance_weight=sim.config.balance_weight,
                host_load=host_load,
                slo_scorer=sim.slo_scorer,
                profiler=profiler,
            )[rack]
        request_migrations(
            block,
            receivers,
            reports=reports,
            tracer=tracer,
            profiler=profiler,
            rack=rack,
        )

    def _priority(
        self,
        rack: int,
        factor: PriorityFactor,
        budget: int,
        cands: Sequence[CandidateVM],
    ) -> List[CandidateVM]:
        """One timed, traced PRIORITY (Alg. 2) call."""
        sim = self.sim
        with sim.profiler.section("priority"):
            chosen = priority_select(cands, factor, budget=budget)
        if sim.tracer.enabled:
            sim.tracer.emit(
                PrioritySelected(
                    rack=rack,
                    factor=factor.name,
                    budget=budget,
                    candidates=len(cands),
                    selected=tuple(c.vm_id for c in chosen),
                )
            )
        return chosen

    def _predicted_damage(self, migrate_set: Sequence[int]) -> float:
        """Summed SLO damage the scorer predicts for the migration set."""
        scorer = self.sim.slo_scorer
        if scorer is None:
            return 0.0
        pl = self.sim.cluster.placement
        caps = [int(pl.vm_capacity[v]) for v in migrate_set]
        return float(scorer.damage(migrate_set, caps).sum())
