"""VMMIGRATION (Alg. 3): match, request, migrate.

Alg. 3 builds the bipartite cost graph between the candidate VMs ``F``
and the destination hosts available at neighbor delegations ``T``, solves
minimum-weight matching, then sends REQUESTs (Alg. 4).  ACKed VMs are
reserved for migration and leave ``F``; REJECTed VMs stay and are
re-matched in the next iteration, exactly the paper's retry loop.

Within one management round the placement is frozen — promises live in
the receiver registry and accepted moves land at commit (or, with
live-migration timing, at a later round's start).  So everything Alg. 3
derives from the placement is *round-static*, and the algorithm splits
into two halves:

* :func:`stack_cost_blocks` computes, for every planning rack in one
  pass, the Eq. (1) cost matrix of its candidate set against its one-hop
  region, the feasibility mask (``free >= need``), the load-steering term
  and each row's first minimum;
* :func:`request_migrations` runs the matching / REQUEST / retry loop over
  one rack's block against the shared receiver registry — retries subset
  the block's rows instead of rebuilding them, and a single remaining row
  requests its stored first minimum (Kuhn–Munkres' own 1 × m answer)
  without trimming, solving or gathering anything.  Its outcome is the
  migration part of a row of the round's
  :class:`~repro.migration.reports.RoundReports`, from which the per-rack
  metrics are written.

Every planner composes the two — the engine's plan stage, the Figs.
11–14 round and the HOST_CRASH evacuation; only the second half, Alg. 4's
FCFS order, stays serial, one rack at a time.  The scalar definition of
the first half lives with the tests as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel
from repro.errors import MigrationError
from repro.migration.matching import hungarian
from repro.migration.reports import MigrationStats, RoundReports
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import MatchingSolved, RequestSent
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "MigrationStats",
    "RackCostBlock",
    "request_migrations",
    "stack_cost_blocks",
]

_MAX_ITERATIONS = 8
"""Alg. 3 match / REQUEST rounds per shim before the rest stay unplaced."""


def _greedy_assign(cost: np.ndarray) -> np.ndarray:
    """Cheapest-edge-first partial assignment; -1 marks unassigned rows."""
    n, m = cost.shape
    out = np.full(n, -1, dtype=np.int64)
    finite = np.isfinite(cost)
    order = np.argsort(cost, axis=None)
    used_rows = np.zeros(n, dtype=bool)
    used_cols = np.zeros(m, dtype=bool)
    for flat in order:
        r, c = divmod(int(flat), m)
        if not finite[r, c]:
            break  # sorted ascending: everything after is inf too
        if used_rows[r] or used_cols[c]:
            continue
        out[r] = c
        used_rows[r] = True
        used_cols[c] = True
    return out


@dataclass
class RackCostBlock:
    """Round-static matching inputs for one delegation's candidate set.

    ``cost``/``true_cost`` are the full ``(len(vms), len(hosts))`` matrices
    of Alg. 3 (steered and raw Eq. (1) values, ``inf`` = infeasible);
    retries subset their rows instead of rebuilding them.  ``first_min[i]``
    is the column of row ``i``'s first minimum in ``cost`` — the whole
    matching when row ``i`` is matched alone — or ``-1`` when that entry is
    not finite (no feasible destination).
    """

    vms: List[int]
    hosts: np.ndarray
    host_racks: np.ndarray
    true_cost: np.ndarray
    cost: np.ndarray
    first_min: np.ndarray


def _first_min(cost: np.ndarray) -> np.ndarray:
    """``RackCostBlock.first_min`` of a non-empty ``(rows, hosts)`` matrix."""
    col = cost.argmin(axis=1)
    return np.where(np.isfinite(cost[np.arange(len(cost)), col]), col, -1)


def _trim_rows(cost: np.ndarray, num_hosts: int):
    """Rows entering the matching + their cost submatrix (Alg. 3 trimming).

    Rows with no feasible destination are dropped; when more VMs than
    hosts remain, only the cheapest ``|hosts|`` rows (by best destination)
    are matched this iteration.
    """
    has_dest = np.isfinite(cost).any(axis=1)
    rows = np.nonzero(has_dest)[0]
    if rows.size == 0:
        return rows, cost[rows]
    sub = cost[rows]
    if rows.size > num_hosts:
        best_per_row = sub.min(axis=1)
        order = np.argsort(best_per_row)[:num_hosts]
        rows = rows[order]
        sub = cost[rows]
    return rows, sub


def _solve(sub: np.ndarray):
    """Kuhn–Munkres, or greedy when no perfect matching exists.

    Forbidden pairs can funnel several VMs onto one host; the greedy
    cheapest-first assignment still moves the placeable subset.  Returns
    ``(assignment, fallback)``.
    """
    try:
        assignment, _ = hungarian(sub)
        return assignment, False
    except MigrationError:
        return _greedy_assign(sub), True


def stack_cost_blocks(
    cluster: Cluster,
    cost_model: CostModel,
    picks: Dict[int, List[int]],
    snapshot,
    *,
    balance_weight: float = 50.0,
    host_load: Optional[np.ndarray] = None,
    slo_scorer=None,
) -> Dict[int, RackCostBlock]:
    """Alg. 3's round-static inputs for every rack's own region, in one pass.

    *picks* maps a rack to its migration set (duplicate-free VMs of that
    rack); each rack with a non-empty set gets a :class:`RackCostBlock`
    against its shim's sorted ``candidate_hosts()``, as views of one
    ``(all VMs, widest region)`` stack — one gather of free capacity and
    load, one :meth:`CostModel.cost_rows` call, one mask, one ``argmin``
    over :meth:`Cluster.region_hosts`, its padding masked to ``inf``.
    Feasibility is the *snapshot*'s last-known free capacity (dead hosts
    have none): availability net of this round's promises is known only
    to the receivers.  The matching minimizes ``Cost + balance_weight ·
    load`` — among similarly-priced destinations the emptier host wins,
    the mechanism behind Figs. 9/10 — with the load the measured
    *host_load* when given, else the snapshot's fill fraction; a
    *slo_scorer* (``scoring="slo"``) adds its predicted SLO damage.
    ``true_cost`` keeps the raw Eq. (1) value.
    """
    racks = [rack for rack, vms in picks.items() if vms]
    if not racks:
        return {}
    sizes = [len(picks[rack]) for rack in racks]
    ids = np.asarray([vm for rack in racks for vm in picks[rack]], dtype=np.int64)
    hosts_of, cols_of, widths = cluster.region_hosts()
    row_rack = np.repeat(np.asarray(racks, dtype=np.int64), sizes)
    hosts = hosts_of[row_rack]
    need = cluster.placement.vm_capacity[ids]
    feasible = snapshot.host_free[hosts] >= need[:, None]
    feasible &= np.arange(hosts.shape[1]) < widths[row_rack][:, None]
    if host_load is None:
        load_frac = snapshot.host_load[hosts]
    else:
        load_frac = np.asarray(host_load, dtype=np.float64)[hosts]
    gathered = cost_model.cost_rows(ids, region_cols=cols_of[row_rack])
    true_cost = np.where(feasible, gathered, np.inf)
    cost = true_cost + balance_weight * load_frac
    if slo_scorer is not None:
        cost = cost + slo_scorer.addend(
            slo_scorer.damage(ids.tolist(), need.tolist()), load_frac
        )
    first_min = _first_min(cost) if hosts.shape[1] else np.full(ids.size, -1)
    host_racks = cluster.placement.host_rack[hosts]
    blocks: Dict[int, RackCostBlock] = {}
    start = 0
    for rack, size, width in zip(racks, sizes, widths[racks].tolist()):
        rows = slice(start, start + size)
        blocks[rack] = RackCostBlock(
            picks[rack],
            hosts_of[rack, :width],
            host_racks[start, :width],
            true_cost[rows, :width],
            cost[rows, :width],
            first_min[rows],
        )
        start += size
    return blocks


def request_migrations(
    block: RackCostBlock,
    receivers: ReceiverRegistry,
    *,
    reports: RoundReports,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
    rack: Optional[int] = None,
) -> None:
    """Alg. 3's loop over a prepared block: match, REQUEST, retry.

    Shims run one at a time, in rack order, against the shared receiver
    registry — the FCFS receiver protocol (Alg. 4) is order-sensitive by
    design.  The outcome is written into the last row of *reports* (the
    round's :class:`~repro.migration.reports.RoundReports`); a VM left
    unmatched is unplaced until the next round.  *tracer* gets
    ``MatchingSolved`` / ``RequestSent`` rows labelled by *rack* (``None``
    keeps them out of every alert group), *profiler* the ``matching`` /
    ``request`` sections.
    """
    vms = block.vms
    hosts = block.hosts
    if not vms:
        return
    if hosts.size == 0:
        reports.set_migration(unplaced=vms)
        return

    # row indices into the block matrices still awaiting placement
    remaining_idx = list(range(len(vms)))
    # the ACKed cost accumulates in ack order, from 0.0
    requested = acked = rejected = iterations = search_space = 0
    total_cost = 0.0
    move_vm: List[int] = []
    move_host: List[int] = []
    move_cost: List[float] = []
    matching_size: List[int] = []
    for _ in range(_MAX_ITERATIONS):
        if not remaining_idx:
            break
        iterations += 1
        if iterations == 1:
            # retries re-examine subsets of the same pairs; the search
            # space metric (Fig. 12/14) counts distinct (VM, host) pairs
            search_space = block.cost.size
        lone = remaining_idx[0]
        single = len(remaining_idx) == 1 and block.first_min[lone] >= 0
        if single:
            # 1 x m: Kuhn-Munkres' first step is its last, the row's first
            # minimum -- nothing to trim, solve or gather
            n_rows = matched = 1
            fallback = False
            t0 = perf_counter()
            with profiler.section("matching"):
                col = int(block.first_min[lone])
            solve_elapsed = perf_counter() - t0
        else:
            if len(remaining_idx) == len(vms):
                # nothing placed yet (always true on iteration 1): the block
                # matrices are already row-aligned — no need to copy them
                cost = block.cost
                true_cost = block.true_cost
            else:
                idx = np.asarray(remaining_idx, dtype=np.int64)
                cost = block.cost[idx]
                true_cost = block.true_cost[idx]
            rows, sub = _trim_rows(cost, int(hosts.size))
            if rows.size == 0:
                break
            n_rows = int(rows.size)
            t0 = perf_counter()
            with profiler.section("matching"):
                assignment, fallback = _solve(sub)
            solve_elapsed = perf_counter() - t0
            if tracer.enabled:
                matched = sum(
                    1
                    for k, col in enumerate(assignment)
                    if col >= 0 and np.isfinite(sub[k, int(col)])
                )
        matching_size.append(n_rows)
        if tracer.enabled:
            # rack, rows, cols, matched, iteration, fallback, elapsed_s
            tracer.record(
                MatchingSolved,
                (
                    rack,
                    n_rows,
                    int(hosts.size),
                    int(matched),
                    iterations,
                    fallback,
                    solve_elapsed,
                ),
            )
        placed_rows = set()
        with profiler.section("request"):
            if single:
                todo = [(lone, col, float(block.true_cost[lone, col]))]
            else:
                # hoist the valid-pair test and both cost gathers out of
                # the python loop; the per-request control flow is unchanged
                assign_arr = np.asarray(assignment, dtype=np.int64)
                cols_safe = np.where(assign_arr >= 0, assign_arr, 0)
                valid = (assign_arr >= 0) & np.isfinite(
                    sub[np.arange(rows.size), cols_safe]
                )
                taken_cost = true_cost[np.asarray(rows), cols_safe]
                todo = [
                    (remaining_idx[r], c, t)
                    for r, c, t, ok in zip(
                        rows.tolist(),
                        cols_safe.tolist(),
                        taken_cost.tolist(),
                        valid.tolist(),
                    )
                    if ok
                ]
            for row, col, c in todo:
                vm = vms[row]
                host = int(hosts[col])
                dst_rack = int(block.host_racks[col])
                requested += 1
                if tracer.enabled:
                    tracer.record(RequestSent, (vm, host, dst_rack, rack))
                outcome = receivers.request(vm, host, dst_rack)
                if outcome is RequestOutcome.ACK:
                    acked += 1
                    total_cost += c
                    move_vm.append(vm)
                    move_host.append(host)
                    move_cost.append(c)
                    placed_rows.add(row)
                else:
                    rejected += 1
        if not placed_rows:
            break
        remaining_idx = [r for r in remaining_idx if r not in placed_rows]
    unplaced = [vms[i] for i in remaining_idx]
    reports.set_migration(
        requested,
        acked,
        rejected,
        total_cost,
        search_space,
        iterations,
        unplaced,
        move_vm,
        move_host,
        move_cost,
        matching_size,
    )
