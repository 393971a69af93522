"""Global optimal (centralized) manager — the Figs. 11–14 comparator.

The centralized manager sees every alerting VM in the DCN at once and
computes a minimum-total-cost assignment of those VMs to *all* feasible
hosts (global minimal weighted matching over the full cost matrix).  Its
plan cost lower-bounds any regional plan built from the same candidate
set, at the price of a search space of |candidates| × |all hosts|.

Large instances use :func:`scipy.optimize.linear_sum_assignment` (the
reference oracle our from-scratch Hungarian is validated against); small
ones run through :func:`repro.migration.matching.hungarian` so the
baseline also exercises the library's own kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel
from repro.errors import ConfigurationError, MigrationError
from repro.migration.matching import hungarian
from repro.obs.events import MatchingSolved
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["CentralizedPlan", "centralized_migration_round"]

_OWN_KERNEL_LIMIT = 220  # rows beyond which the scipy oracle takes over


@dataclass
class CentralizedPlan:
    """Result of one centralized planning round."""

    moves: List[Tuple[int, int, float]] = field(default_factory=list)
    total_cost: float = 0.0
    search_space: int = 0
    unplaced: List[int] = field(default_factory=list)

    @property
    def migrations(self) -> int:
        return len(self.moves)


def centralized_migration_round(
    cluster: Cluster,
    cost_model: CostModel,
    candidates: Sequence[int],
    *,
    apply: bool = False,
    balance_weight: float = 0.0,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
) -> CentralizedPlan:
    """Plan (and optionally apply) the globally optimal migration round.

    Parameters
    ----------
    candidates:
        Alerting VM ids (the same set a Sheriff round would receive).
    apply:
        Mutate the cluster placement with the plan.  Benchmarks comparing
        against Sheriff plan on a *clone* instead (``apply=False``).
        A VM is never assigned the host it already occupies (a no-op
        "migration" has no meaning in Alg. 3).
    balance_weight:
        Optional load-aware steering, as in
        :func:`repro.migration.vmmigration.stack_cost_blocks`.  Defaults to
        0 so the manager stays the pure cost-optimal oracle of Figs. 11/13;
        plan costs always report the true Eq. (1) value.
    tracer, profiler:
        Optional observability handles: the global matching solve emits
        one :class:`~repro.obs.events.MatchingSolved` and is timed under
        the ``matching`` profiler section.
    """
    plan = CentralizedPlan()
    vms = [int(v) for v in dict.fromkeys(candidates)]
    if not vms:
        return plan
    pl = cluster.placement
    n_hosts = pl.num_hosts
    hosts = np.arange(n_hosts)
    free = np.asarray([pl.free_capacity(h) for h in range(n_hosts)])
    host_racks = pl.host_rack

    steer = balance_weight * (pl.host_used / pl.host_capacity)
    cost = np.full((len(vms), n_hosts), np.inf)
    true_cost = np.full((len(vms), n_hosts), np.inf)
    for r, vm in enumerate(vms):
        per_rack = cost_model.migration_cost_vector(vm)
        need = int(pl.vm_capacity[vm])
        feasible = free >= need
        feasible[int(pl.vm_host[vm])] = False
        true_cost[r, feasible] = per_rack[host_racks[feasible]]
        cost[r, feasible] = true_cost[r, feasible] + steer[feasible]
    plan.search_space = cost.size

    has_dest = np.isfinite(cost).any(axis=1)
    rows = np.nonzero(has_dest)[0]
    plan.unplaced = [vms[i] for i in np.nonzero(~has_dest)[0]]
    if rows.size == 0:
        return plan
    sub = cost[rows]
    # replace inf with a large sentinel for the scipy oracle, then drop any
    # matched-forbidden pairs afterwards
    t_solve = perf_counter() if tracer.enabled else 0.0
    fallback = False
    with profiler.section("matching"):
        if rows.size > _OWN_KERNEL_LIMIT:
            finite_max = sub[np.isfinite(sub)].max() if np.isfinite(sub).any() else 1.0
            sentinel = finite_max * len(vms) * 10 + 1.0
            filled = np.where(np.isfinite(sub), sub, sentinel)
            rr, cc = linear_sum_assignment(filled)
            pairs = [(int(r), int(c)) for r, c in zip(rr, cc) if np.isfinite(sub[r, c])]
        else:
            try:
                assignment, _ = hungarian(sub)
                pairs = [
                    (k, int(c)) for k, c in enumerate(assignment) if np.isfinite(sub[k, c])
                ]
            except MigrationError:
                fallback = True
                finite_max = sub[np.isfinite(sub)].max() if np.isfinite(sub).any() else 1.0
                sentinel = finite_max * len(vms) * 10 + 1.0
                filled = np.where(np.isfinite(sub), sub, sentinel)
                rr, cc = linear_sum_assignment(filled)
                pairs = [(int(r), int(c)) for r, c in zip(rr, cc) if np.isfinite(sub[r, c])]
    if tracer.enabled:
        tracer.emit(
            MatchingSolved(
                rows=int(rows.size),
                cols=int(n_hosts),
                matched=len(pairs),
                iteration=1,
                fallback=fallback,
                elapsed_s=perf_counter() - t_solve,
            )
        )

    for k, host in pairs:
        vm = vms[int(rows[k])]
        c = float(true_cost[rows[k], host])
        plan.moves.append((vm, int(host), c))
        plan.total_cost += c
    matched_vms = {m[0] for m in plan.moves}
    plan.unplaced.extend(v for i, v in enumerate(vms) if has_dest[i] and v not in matched_vms)

    if apply:
        for vm, host, _ in plan.moves:
            cluster.placement.migrate(vm, host)
    return plan
