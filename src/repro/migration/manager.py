"""Pre-Alert Management Procedure (Alg. 1) — the per-shim framework.

Every delegation node runs one :class:`ShimManager`.  Each round it takes
the alerts addressed to it, dispatches on their kind:

* **outer switch** — collect local VMs whose flows cross the hot switch,
  PRIORITY(F, α), and reroute those flows (cheaper than migration, so it
  runs first — Sec. III-B);
* **local host** — PRIORITY(F, 1): the single highest-ALERT VM on that
  host joins the migration set;
* **local ToR** — aggregated after the loop: PRIORITY over the whole
  rack with the β budget of the ToR capacity (Eq. 10).

and finally runs VMMIGRATION (Alg. 3) on the migration set against the
one-hop neighbor racks.  :meth:`ShimManager.process_round` is the only
implementation of Alg. 1, and the engine calls it once per alerted rack,
in rack order — the order Alg. 4's FCFS REQUESTs owe.  What does not
depend on that order is computed once per round, for every shim, and
only read here: a SERVER alert's PRIORITY(F, 1) is a lookup in the
:class:`~repro.cluster.snapshot.FleetSnapshot`'s host table, and the
round-static half of Alg. 3 arrives as this rack's rows of the engine's
:func:`~repro.migration.vmmigration.stack_cost_blocks` (a shim called
without them, or whose migration set they do not hold — the β picks of
a ToR alert — builds its own as a one-rack stack).  Its
outcome is a row of the round's
:class:`~repro.migration.reports.RoundReports`, from which the engine
writes the round's per-rack metrics in one call; a caller that passes none
gets the one-row record's :class:`~repro.migration.reports.RoundReport`
back, its metrics written to the shim's registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.cluster import Cluster
from repro.cluster.shim import ShimView
from repro.cluster.snapshot import FleetSnapshot
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.migration.priority import CandidateVM, PriorityFactor, priority_select
from repro.migration.reports import RoundReport, RoundReports
from repro.migration.request import ReceiverRegistry
from repro.migration.reroute import FlowTable, flow_reroute
from repro.migration.vmmigration import (
    RackCostBlock,
    request_migrations,
    stack_cost_blocks,
)
from repro.obs.events import FlowRerouted, PrioritySelected
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["RoundReport", "RoundReports", "ShimManager"]

#: β of Eq. (10): the share of the ToR capacity a ToR alert migrates.
BETA = 0.1


class ShimManager:
    """Alg. 1 bound to one delegation node.

    Parameters
    ----------
    alpha:
        Capacity portion for switch-triggered rerouting; ToR-triggered
        migration takes :data:`BETA` ("different portion of capacity for
        migration since it is not necessary to migrate all VMs").
    flow_table:
        Shared flow registry; optional — without it, outer-switch alerts
        are counted but produce no reroutes.
    tracer, metrics, profiler:
        Observability handles (see :mod:`repro.obs`); all default to
        disabled no-ops.  *metrics* takes the per-rack instruments of a
        round the shim plans into its own record.
    """

    def __init__(
        self,
        cluster: Cluster,
        cost_model: CostModel,
        rack: int,
        *,
        alpha: float = 0.1,
        balance_weight: float = 50.0,
        flow_table: Optional[FlowTable] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        profiler=NULL_PROFILER,
        slo_scorer=None,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.cluster = cluster
        self.cost_model = cost_model
        self.rack = rack
        self.alpha = alpha
        self.balance_weight = balance_weight
        self.flow_table = flow_table
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.slo_scorer = slo_scorer
        self.shim = ShimView(cluster, rack)

    # ------------------------------------------------------------------ #
    def process_round(
        self,
        alerts: Sequence[Alert],
        vm_alerts: Dict[int, float],
        receivers: ReceiverRegistry,
        frozen: frozenset = frozenset(),
        host_load=None,
        snapshot: Optional[FleetSnapshot] = None,
        block: Optional[RackCostBlock] = None,
        reports: Optional[RoundReports] = None,
    ) -> Optional[RoundReport]:
        """Run Alg. 1 for this shim.

        Parameters
        ----------
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
            Optional measured per-host utilization for destination steering
            (see :func:`repro.migration.vmmigration.stack_cost_blocks`).
        snapshot:
            The round's shared :class:`FleetSnapshot`; the engine builds one
            per round for all shims.  A direct caller may leave it out and
            the shim builds its own from the (round-static) placement.
        block:
            This rack's rows of the round's
            :func:`~repro.migration.vmmigration.stack_cost_blocks`.  Used
            when it was built for exactly the migration set chosen here;
            otherwise, and without one, the shim stacks its own rack alone.
        reports:
            The round's :class:`RoundReports`: this rack's row is appended
            to it and nothing is returned.  Without one the shim plans into
            a one-row record of its own, writes it to its *metrics* registry
            and returns its :class:`RoundReport`.
        """
        if snapshot is None:
            snapshot = FleetSnapshot(self.cluster.placement)
        own = reports is None
        if own:
            reports = RoundReports()
        tracer = self.tracer
        alerts_processed = rerouted = failed = 0
        migrate_set: List[int] = []
        reroute_flow_ids: List[int] = []
        hot_switches: Set[int] = set()
        tor_alerted = False

        for alert in alerts:
            if alert.rack != self.rack:
                raise ConfigurationError(
                    f"alert for rack {alert.rack} delivered to shim {self.rack}"
                )
            alerts_processed += 1
            if alert.kind is AlertKind.OUTER_SWITCH:
                assert alert.switch is not None
                hot_switches.add(alert.switch)
                if self.flow_table is not None:
                    flows = self.flow_table.flows_through(
                        alert.switch, from_rack=self.rack
                    )
                    cands = snapshot.candidates([f.vm for f in flows], vm_alerts)
                    budget = max(1, int(self.alpha * self.cluster.tor_capacity(self.rack)))
                    chosen = self._priority(PriorityFactor.ALPHA, budget, cands)
                    chosen_vms = {c.vm_id for c in chosen}
                    reroute_flow_ids.extend(
                        f.flow_id for f in flows if f.vm in chosen_vms
                    )
            elif alert.kind is AlertKind.LOCAL_TOR:
                tor_alerted = True
            elif alert.kind is AlertKind.SERVER:
                assert alert.host is not None
                if snapshot.host_rack[alert.host] != self.rack:
                    raise ConfigurationError(
                        f"server alert for host {alert.host} outside rack {self.rack}"
                    )
                # PRIORITY(F, 1): the host table holds every host's pick
                winners, candidates = snapshot.host_winners(vm_alerts)
                vm = winners[alert.host]
                if vm >= 0:
                    migrate_set.append(vm)
                if tracer.enabled:
                    # rack, factor, budget, candidates, selected
                    tracer.record(
                        PrioritySelected,
                        (
                            self.rack,
                            "ONE",
                            1,
                            candidates[alert.host],
                            (vm,) if vm >= 0 else (),
                        ),
                    )

        if tor_alerted:
            cands = snapshot.candidates(snapshot.vms_in_rack(self.rack), vm_alerts)
            budget = max(1, int(BETA * self.cluster.tor_capacity(self.rack)))
            chosen = self._priority(PriorityFactor.BETA, budget, cands)
            migrate_set.extend(c.vm_id for c in chosen)

        # rerouting first — cheaper and faster than migration (Sec. III-B)
        if reroute_flow_ids and self.flow_table is not None:
            with self.profiler.section("reroute"):
                rerouted, failed = flow_reroute(
                    self.flow_table, reroute_flow_ids, hot_switches
                )
            if tracer.enabled:
                tracer.emit(
                    FlowRerouted(
                        rack=self.rack,
                        rerouted=rerouted,
                        failed=failed,
                        flows=tuple(reroute_flow_ids),
                        hot_switches=tuple(sorted(hot_switches)),
                    )
                )

        migrate_set = [v for v in dict.fromkeys(migrate_set) if v not in frozen]
        damage = self._predicted_damage(migrate_set) if migrate_set else 0.0
        reports.add_row(
            self.rack, alerts_processed, rerouted, failed, damage, migrate_set
        )
        if migrate_set:
            if block is None or block.vms != migrate_set:
                block = stack_cost_blocks(
                    self.cluster,
                    self.cost_model,
                    {self.rack: migrate_set},
                    snapshot,
                    balance_weight=self.balance_weight,
                    host_load=host_load,
                    slo_scorer=self.slo_scorer,
                )[self.rack]
            request_migrations(
                block,
                receivers,
                reports=reports,
                tracer=tracer,
                profiler=self.profiler,
                rack=self.rack,
            )
        if not own:
            return None
        if self.metrics is not None:
            reports.write_metrics(self.metrics)
        return reports[0]

    def _priority(
        self,
        factor: PriorityFactor,
        budget: int,
        cands: Sequence[CandidateVM],
    ) -> List[CandidateVM]:
        """One timed, traced PRIORITY (Alg. 2) call."""
        with self.profiler.section("priority"):
            chosen = priority_select(cands, factor, budget=budget)
        if self.tracer.enabled:
            self.tracer.emit(
                PrioritySelected(
                    rack=self.rack,
                    factor=factor.name,
                    budget=budget,
                    candidates=len(cands),
                    selected=tuple(c.vm_id for c in chosen),
                )
            )
        return chosen

    def _predicted_damage(self, migrate_set: Sequence[int]) -> float:
        """Summed SLO damage the scorer predicts for the migration set."""
        if self.slo_scorer is None:
            return 0.0
        pl = self.cluster.placement
        caps = [int(pl.vm_capacity[v]) for v in migrate_set]
        return float(self.slo_scorer.damage(migrate_set, caps).sum())
