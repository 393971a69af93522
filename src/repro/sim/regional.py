"""Regional (Sheriff) migration planning round — Fig. 11–14 protagonist.

The exact regional counterpart of
:func:`repro.sim.centralized.centralized_migration_round`: the same
candidate VM set, but each VM may only move to hosts in its shim's
one-hop neighbor racks, and each shim plans independently (Alg. 3 with
the shared REQUEST protocol).  Comparing the two on identical candidate
sets isolates precisely what the paper's Figs. 11–14 measure: the cost
penalty and search-space savings of regional scope.

It plans with the two halves the service's plan stage runs: the
round-static Eq. (1) rows of every source rack in one
:func:`~repro.migration.vmmigration.stack_cost_blocks` pass, then
:func:`~repro.migration.vmmigration.request_round` in rack order — the
racks' first matchings admitted as columns, the racks whose verdicts
the sequential loop could change planned rack by rack — into one
:class:`~repro.migration.reports.RoundReports`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.snapshot import FleetSnapshot
from repro.costs.model import CostModel
from repro.migration.reports import RoundReports
from repro.migration.request import ReceiverRegistry
from repro.migration.vmmigration import request_round, stack_cost_blocks
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.centralized import CentralizedPlan

__all__ = ["regional_migration_round"]


def regional_migration_round(
    cluster: Cluster,
    cost_model: CostModel,
    candidates: Sequence[int],
    *,
    apply: bool = False,
    balance_weight: float = 0.0,
    tracer: Tracer = NULL_TRACER,
    metrics: "MetricsRegistry | None" = None,
    profiler=NULL_PROFILER,
) -> CentralizedPlan:
    """Plan one regional migration round over the same candidate set.

    Returns the same :class:`CentralizedPlan` record type so benchmark
    code treats both managers uniformly.  ``apply=False`` plans against
    the live placement but rolls the reservations back.  The optional
    observability handles flow into the receiver protocol and each
    rack's REQUEST loop; *metrics* gets the round's planning totals in one
    :meth:`~repro.migration.reports.RoundReports.write_metrics`.
    """
    plan = CentralizedPlan()
    vms = [int(v) for v in dict.fromkeys(candidates)]
    if not vms:
        return plan
    pl = cluster.placement
    by_rack: Dict[int, List[int]] = {}
    for vm in vms:
        rack = int(pl.host_rack[pl.vm_host[vm]])
        by_rack.setdefault(rack, []).append(vm)

    stack = stack_cost_blocks(
        cluster,
        cost_model,
        by_rack,
        FleetSnapshot(pl),
        balance_weight=balance_weight,
        profiler=profiler,
    )
    receivers = ReceiverRegistry(cluster, tracer=tracer)
    reports = RoundReports()
    request_round(
        stack, receivers, reports, sorted(by_rack), tracer=tracer, profiler=profiler
    )
    for i in range(len(reports)):
        stats = reports.migration(i)
        plan.search_space += stats.search_space
        plan.total_cost += stats.total_cost
        plan.moves.extend(stats.moves)
        plan.unplaced.extend(stats.unplaced)
    if metrics is not None:
        reports.write_metrics(metrics)
    if apply:
        receivers.commit_round()
    else:
        receivers.reset_round()
    return plan
