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
  and each row's first minimum — and, since Alg. 3's first matching reads
  nothing but that matrix, every rack's first matching too: the whole
  stack is trimmed once, every rack's problem is solved in one
  :func:`~repro.migration.matching.jv_solve_many` call (a stack whose
  racks match one row at most takes each row's first minimum), and the
  pairs each matching requests are gathered once, as Python lists per
  rack;
* :func:`request_migrations` runs the REQUEST / retry loop over one rack's
  block against the shared receiver registry — iteration 1 sends the
  block's first matching, a retry matches the rows still unplaced through
  the same trim and solve, as a stack of one problem (a subset of the
  block's rows, never a rebuilt matrix), and a single remaining row
  requests its stored first minimum (Kuhn–Munkres' own 1 × m answer)
  without trimming, solving or gathering anything.  Its
  outcome is the migration part of a row of the round's
  :class:`~repro.migration.reports.RoundReports`, from which the per-rack
  metrics are written.

Every planner composes the two — the engine's plan stage, the Figs.
11–14 round and the HOST_CRASH evacuation; only the second half, Alg. 4's
FCFS order, stays serial, one rack at a time.  The scalar definition of
the first half lives with the tests as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.migration.matching import jv_solve_many
from repro.migration.reports import MigrationStats, RoundReports
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import MatchingSolved, RequestSent
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Matching",
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


class Matching(NamedTuple):
    """One Alg. 3 iteration of one rack: its matching, as the REQUESTs it sends.

    ``size`` rows entered the matching (0: no remaining row has a feasible
    destination, and the rack stops).  Its valid pairs, in matching order,
    send block row ``rows[i]`` to host ``hosts[i]`` of rack ``racks[i]`` at
    raw Eq. (1) cost ``costs[i]``.  ``fallback`` marks the greedy
    assignment taken when no perfect matching exists; ``elapsed_s`` is
    this problem's own solve time, never a share of a batch (0 when every
    problem of its stack matched one row at most, which is a first-minimum
    scan).
    """

    size: int
    fallback: bool
    elapsed_s: float
    rows: List[int]
    hosts: List[int]
    racks: List[int]
    costs: List[float]


@dataclass
class RackCostBlock:
    """Round-static matching inputs for one delegation's candidate set.

    ``cost``/``true_cost`` are the full ``(len(vms), len(hosts))`` matrices
    of Alg. 3 (steered and raw Eq. (1) values, ``inf`` = infeasible);
    retries subset their rows instead of rebuilding them.  ``first_min[i]``
    is the column of row ``i``'s first minimum in ``cost`` — the whole
    matching when row ``i`` is matched alone — or ``-1`` when that entry is
    not finite (no feasible destination).  ``first`` is Alg. 3's first
    iteration over every row, which the placement alone decides.
    """

    vms: List[int]
    hosts: np.ndarray
    host_racks: np.ndarray
    true_cost: np.ndarray
    cost: np.ndarray
    first_min: np.ndarray
    first: Matching


def _first_min(cost: np.ndarray) -> np.ndarray:
    """``RackCostBlock.first_min`` of a ``(rows, hosts)`` matrix."""
    if not cost.shape[1]:
        return np.full(len(cost), -1)
    col = cost.argmin(axis=1)
    return np.where(np.isfinite(cost[np.arange(len(cost)), col]), col, -1)


def _match_stack(
    cost: np.ndarray,
    first_min: np.ndarray,
    bounds: np.ndarray,
    widths: np.ndarray,
):
    """One Alg. 3 iteration of every problem of a stack: trim, solve, keep.

    Problem ``p`` is rows ``bounds[p]:bounds[p + 1]`` of *cost* over its
    first ``widths[p]`` columns; *first_min* holds each row's
    :attr:`RackCostBlock.first_min`.  The trim drops the rows with no
    finite entry and cuts a problem with more such rows than columns to
    its cheapest ``widths[p]`` (by best destination, in ``argsort``
    order); one :func:`jv_solve_many` call solves every problem, each a
    range of one contiguous matrix, and a failed one (codes 1–3) takes
    :func:`_greedy_assign`.  When no problem keeps more than one row and
    each kept row has a first minimum, that minimum is the matching
    (Kuhn–Munkres' first step is its last) and nothing is solved.

    Returns ``(rows, cols, sizes, fallback, seconds, at)``: the valid
    pairs as rows of *cost* and columns, problem ``p``'s being
    ``at[p]:at[p + 1]``; ``sizes[p]`` rows entered problem ``p``'s
    matching, ``fallback[p]`` marks its greedy assignment and
    ``seconds[p]`` is its own solve time.
    """
    # ndarray methods over numpy's module functions: this runs once a
    # round even when one rack plans one VM
    every = (first_min >= 0).all()
    if every:
        # a first minimum >= 0 is finite: every row has a destination
        rows, starts = np.arange(first_min.size), bounds
    else:
        rows = np.isfinite(cost).any(axis=1).nonzero()[0]
        # problem p's rows with a destination: rows[starts[p]:starts[p + 1]]
        starts = rows.searchsorted(bounds)
    entered = starts[1:] - starts[:-1]
    if entered.max() <= 1 and (every or (first_min[rows] >= 0).all()):
        # one row a problem at most, so nothing to cut: Kuhn-Munkres' first
        # step is its last, the row's first minimum -- finite, so the row
        # holds no NaN or -inf (argmin stops there) and no padding wins it
        k = entered.size
        return rows, first_min[rows], entered, np.zeros(k, bool), np.zeros(k), starts
    over = entered > widths
    if over.any():
        # more VMs than hosts: only the cheapest |hosts| rows (by best
        # destination) enter, in the order argsort gives them
        pieces = np.split(rows, starts[1:-1])
        for p in over.nonzero()[0].tolist():
            kept, width = pieces[p], int(widths[p])
            pieces[p] = kept[np.argsort(cost[kept, :width].min(axis=1))[:width]]
        rows = np.concatenate(pieces)
        entered = np.minimum(entered, widths)
        starts = np.concatenate(([0], entered.cumsum()))
    sub = cost[rows]
    if not (sub > -np.inf).all():
        own = np.arange(sub.shape[1]) < widths.repeat(entered)[:, None]
        if (~(sub > -np.inf) & own).any():
            raise ConfigurationError("cost entries must be > -inf and not NaN")
    cols, codes, seconds = jv_solve_many(sub, starts, widths)
    fallback = codes != 0
    for p in fallback.nonzero()[0].tolist():
        lo, hi = starts[p], starts[p + 1]
        t0 = perf_counter()
        cols[lo:hi] = _greedy_assign(sub[lo:hi, : widths[p]])
        seconds[p] += perf_counter() - t0
    # greedy may leave a row unassigned (-1)
    keep = ((cols >= 0) & np.isfinite(sub[np.arange(rows.size), cols])).nonzero()[0]
    return rows[keep], cols[keep], entered, fallback, seconds, keep.searchsorted(starts)


def _first_matchings(
    cost: np.ndarray,
    true_cost: np.ndarray,
    first_min: np.ndarray,
    hosts: np.ndarray,
    host_rack: np.ndarray,
    bounds: np.ndarray,
    widths: np.ndarray,
) -> List[Matching]:
    """Every rack's first :class:`Matching` over the stacked matrices.

    Rack ``p`` owns stack rows ``bounds[p]:bounds[p + 1]`` over its first
    ``widths[p]`` columns, whose hosts ``hosts`` holds (*host_rack* maps a
    host to its rack).  :func:`_match_stack` solves them all; the taken
    Eq. (1) cost, the destination host and its rack are gathered once.
    """
    rows, cols, sizes, fallback, seconds, at = _match_stack(
        cost, first_min, bounds, widths
    )
    at = at.tolist()
    dst = hosts[rows, cols]
    dst_hosts = dst.tolist()
    dst_racks = host_rack[dst].tolist()
    taken = true_cost[rows, cols].tolist()
    rows = rows.tolist()
    return [
        Matching(
            size,
            failed,
            secs,
            [row - first for row in rows[lo:hi]],
            dst_hosts[lo:hi],
            dst_racks[lo:hi],
            taken[lo:hi],
        )
        for size, failed, secs, first, lo, hi in zip(
            sizes.tolist(),
            fallback.tolist(),
            seconds.tolist(),
            bounds.tolist(),
            at,
            at[1:],
        )
    ]


def stack_cost_blocks(
    cluster: Cluster,
    cost_model: CostModel,
    picks: Dict[int, List[int]],
    snapshot,
    *,
    balance_weight: float = 50.0,
    host_load: Optional[np.ndarray] = None,
    slo_scorer=None,
    profiler=NULL_PROFILER,
) -> Dict[int, RackCostBlock]:
    """Alg. 3's round-static inputs for every rack's own region, in one pass.

    *picks* maps a rack to its migration set (duplicate-free VMs of that
    rack); each rack with a non-empty set gets a :class:`RackCostBlock`
    against its region's sorted hosts (its row of
    :meth:`Cluster.region_hosts`), as views of one
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
    ``true_cost`` keeps the raw Eq. (1) value.  Each block's ``first``
    matching comes from one solve over the whole stack, timed as one
    *profiler* ``matching`` section.
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
    first_min = _first_min(cost)
    host_rack = cluster.placement.host_rack
    region_racks = host_rack[hosts_of[racks]]
    bounds = np.asarray([0, *accumulate(sizes)])
    rack_widths = widths[racks]
    with profiler.section("matching"):
        first = _first_matchings(
            cost, true_cost, first_min, hosts, host_rack, bounds, rack_widths
        )
    blocks: Dict[int, RackCostBlock] = {}
    for i, (rack, start, end, width) in enumerate(
        zip(racks, bounds.tolist(), bounds[1:].tolist(), rack_widths.tolist())
    ):
        rows = slice(start, end)
        blocks[rack] = RackCostBlock(
            picks[rack],
            hosts_of[rack, :width],
            region_racks[i, :width],
            true_cost[rows, :width],
            cost[rows, :width],
            first_min[rows],
            first[i],
        )
    return blocks


def _rematch(block: RackCostBlock, remaining: List[int], profiler) -> Matching:
    """A retry's :class:`Matching` over the block rows still *remaining*."""
    lone = remaining[0]
    if len(remaining) == 1 and block.first_min[lone] >= 0:
        # 1 x m: Kuhn-Munkres' first step is its last, the row's first
        # minimum -- nothing to trim, solve or gather
        t0 = perf_counter()
        with profiler.section("matching"):
            col = int(block.first_min[lone])
        elapsed = perf_counter() - t0
        return Matching(
            1,
            False,
            elapsed,
            [lone],
            [int(block.hosts[col])],
            [int(block.host_racks[col])],
            [float(block.true_cost[lone, col])],
        )
    idx = np.asarray(remaining, dtype=np.int64)
    with profiler.section("matching"):
        # the remaining rows as a stack of one problem
        rows, cols, sizes, fallback, seconds, _ = _match_stack(
            block.cost[idx],
            block.first_min[idx],
            np.array([0, idx.size]),
            np.array([block.hosts.size]),
        )
    rows = idx[rows]
    return Matching(
        int(sizes[0]),
        bool(fallback[0]),
        float(seconds[0]),
        rows.tolist(),
        block.hosts[cols].tolist(),
        block.host_racks[cols].tolist(),
        block.true_cost[rows, cols].tolist(),
    )


def request_migrations(
    block: RackCostBlock,
    receivers: ReceiverRegistry,
    *,
    reports: RoundReports,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
    rack: Optional[int] = None,
) -> None:
    """Alg. 3's loop over a prepared block: REQUEST, match again, retry.

    Shims run one at a time, in rack order, against the shared receiver
    registry — the FCFS receiver protocol (Alg. 4) is order-sensitive by
    design.  Iteration 1 sends ``block.first``; each retry matches the rows
    still unplaced (:func:`_rematch`).  The outcome is written into the
    last row of *reports* (the round's
    :class:`~repro.migration.reports.RoundReports`); a VM left unmatched is
    unplaced until the next round.  *tracer* gets ``MatchingSolved`` /
    ``RequestSent`` rows labelled by *rack* (``None`` keeps them out of
    every alert group), *profiler* each retry's ``matching`` and every
    iteration's ``request`` sections.
    """
    vms = block.vms
    width = int(block.hosts.size)
    if not vms:
        return
    if width == 0:
        reports.set_migration(unplaced=vms)
        return

    traced = tracer.enabled
    request = receivers.request
    ack = RequestOutcome.ACK
    # row indices into the block matrices still awaiting placement
    remaining_idx = list(range(len(vms)))
    # the ACKed cost accumulates in ack order, from 0.0
    requested = acked = rejected = iterations = 0
    # retries re-examine subsets of the same pairs; the search space
    # metric (Fig. 12/14) counts distinct (VM, host) pairs
    search_space = block.cost.size
    total_cost = 0.0
    move_vm: List[int] = []
    move_host: List[int] = []
    move_cost: List[float] = []
    matching_size: List[int] = []
    matching = block.first
    while True:
        iterations += 1
        if not matching.size:
            break
        matching_size.append(matching.size)
        if traced:
            # rack, rows, cols, matched, iteration, fallback, elapsed_s
            tracer.record(
                MatchingSolved,
                (
                    rack,
                    matching.size,
                    width,
                    len(matching.rows),
                    iterations,
                    matching.fallback,
                    matching.elapsed_s,
                ),
            )
        placed_rows = set()
        with profiler.section("request"):
            requested += len(matching.rows)
            for row, host, dst_rack, c in zip(
                matching.rows, matching.hosts, matching.racks, matching.costs
            ):
                vm = vms[row]
                if traced:
                    tracer.record(RequestSent, (vm, host, dst_rack, rack))
                if request(vm, host, dst_rack) is ack:
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
        if not remaining_idx or iterations == _MAX_ITERATIONS:
            break
        matching = _rematch(block, remaining_idx, profiler)
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
