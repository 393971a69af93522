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
into a round-static half and a REQUEST half, which runs two ways:

* :func:`stack_cost_blocks` computes, for every planning rack in one
  pass, the Eq. (1) cost matrix of its candidate set against its one-hop
  region, the feasibility mask (``free >= need``), the load-steering term
  and each row's first minimum — and, since Alg. 3's first matching reads
  nothing but that matrix, every rack's first matching too: the whole
  stack is trimmed once, every rack's problem is solved in one
  :func:`~repro.migration.matching.jv_solve_many` call (a stack whose
  racks match one row at most takes each row's first minimum), and the
  pairs each matching requests are gathered once, as columns of the
  returned :class:`CostStack`;
* :func:`request_prefix` sends the first matchings of the round's clean
  leading racks (every REQUEST ACKed, no left-out row a retry could
  place) as one columnar Alg. 4 and records their rows in bulk;
* :func:`request_migrations` runs the REQUEST / retry loop over one rack's
  block against the shared receiver registry, from the first rack that
  is not clean on — iteration 1 sends the block's first matching, a
  retry matches the rows still unplaced through the same trim and solve,
  as a stack of one problem (a subset of the block's rows, never a
  rebuilt matrix), and a single remaining row requests its stored first
  minimum (Kuhn–Munkres' own 1 × m answer) without trimming, solving or
  gathering anything.  Its outcome is the migration part of a row of the
  round's :class:`~repro.migration.reports.RoundReports`, from which the
  per-rack metrics are written.

Every planner composes them — the engine's plan stage, the Figs. 11–14
round (:func:`request_round`) and the HOST_CRASH evacuation; both REQUEST
halves keep Alg. 4's FCFS order and decide alike.  The scalar definition
of the first half lives with the tests as their oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.migration.matching import jv_solve_many
from repro.migration.reports import MigrationStats, RoundReports
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import MatchingSolved, RequestAcked, RequestSent
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "CostStack",
    "Matching",
    "MigrationStats",
    "RackCostBlock",
    "request_migrations",
    "request_prefix",
    "request_round",
    "stack_cost_blocks",
]

_MAX_ITERATIONS = 8
"""Alg. 3 match / REQUEST rounds per shim before the rest stay unplaced."""

_COLUMN_RACKS = 8
"""Fewest leading racks :func:`request_prefix` plans as columns: its fixed
cost is about that many racks of the per-rack loop (≈ 140 µs against
≈ 16 µs a rack, one core, on ``managed_surge_k8``'s 1–4-rack rounds)."""


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
    if entered.max(initial=0) <= 1 and (every or (first_min[rows] >= 0).all()):
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


class _FirstPairs(NamedTuple):
    """Every problem's first matching of a stack, as columns: problem
    ``p``'s valid pairs are ``at[p]:at[p + 1]`` (stack row, host, its rack,
    raw Eq. (1) cost); ``sizes``, ``fallback`` and ``seconds`` are the
    :class:`Matching` fields of each problem."""

    rows: np.ndarray
    hosts: np.ndarray
    racks: np.ndarray
    costs: np.ndarray
    sizes: np.ndarray
    fallback: np.ndarray
    seconds: np.ndarray
    at: np.ndarray

    def matchings(self, bounds: np.ndarray, p: int = 0) -> List[Matching]:
        """Each problem's :class:`Matching` from *p* on, its rows counted
        from its first stack row ``bounds[q]``; one gather a column."""
        at = self.at[p:].tolist()
        lo = at[0]
        rows, hosts, racks, costs = (
            col[lo : at[-1]].tolist()
            for col in (self.rows, self.hosts, self.racks, self.costs)
        )
        return [
            Matching(
                size, failed, secs, [r - first for r in rows[a - lo : b - lo]],
                hosts[a - lo : b - lo], racks[a - lo : b - lo], costs[a - lo : b - lo],
            )
            for size, failed, secs, first, a, b in zip(
                self.sizes[p:].tolist(), self.fallback[p:].tolist(),
                self.seconds[p:].tolist(), bounds[p:].tolist(), at, at[1:],
            )
        ]


def _first_pairs(cost, true_cost, first_min, hosts, host_rack, bounds, widths):
    """Every rack's first matching over the stacked matrices.

    Rack ``p`` owns stack rows ``bounds[p]:bounds[p + 1]`` over its first
    ``widths[p]`` columns, whose hosts ``hosts`` holds (*host_rack* maps a
    host to its rack).  :func:`_match_stack` solves them all; the taken
    Eq. (1) cost, the destination host and its rack are gathered once.
    """
    rows, cols, sizes, fallback, seconds, at = _match_stack(
        cost, first_min, bounds, widths
    )
    dst = hosts[rows, cols]
    return _FirstPairs(
        rows, dst, host_rack[dst], true_cost[rows, cols], sizes, fallback, seconds, at
    )


@dataclass(eq=False)
class CostStack(Mapping):
    """Alg. 3's round-static inputs of every planning rack, as one stack.

    Rack ``racks[p]`` (ascending) owns stack rows ``bounds[p]:bounds[p +
    1]`` — its migration set ``vms[rack]``, VM ids ``ids`` — over the
    first ``widths[p]`` columns: its region's sorted ``hosts`` (racks
    ``host_rack[hosts]``) and :class:`RackCostBlock`'s ``cost`` /
    ``true_cost`` / ``first_min`` rows; ``damage`` is each row's predicted
    SLO damage under an SLO scorer.  ``first`` holds every rack's first
    matching as columns.  As a mapping, rack → :class:`RackCostBlock`,
    built on first read with every block after it: a rack planned from
    the columns (:func:`request_prefix`) never has one built.
    """

    vms: Dict[int, List[int]]
    ids: np.ndarray
    racks: np.ndarray
    bounds: np.ndarray
    widths: np.ndarray
    hosts: np.ndarray
    host_rack: np.ndarray
    true_cost: np.ndarray
    cost: np.ndarray
    first_min: np.ndarray
    damage: Optional[np.ndarray]
    first: _FirstPairs

    def __post_init__(self) -> None:
        self._problem = dict(zip(self.racks.tolist(), range(self.racks.size)))
        self._blocks: Dict[int, RackCostBlock] = {}

    def __getitem__(self, rack: int) -> RackCostBlock:
        if rack not in self._blocks:
            p, bounds = self._problem[rack], self.bounds
            regions = self.hosts[bounds[p:-1]]  # each rack's first row
            region_racks = self.host_rack[regions]
            for i, (r, start, end, width, first) in enumerate(
                zip(
                    self.racks[p:].tolist(), bounds[p:].tolist(),
                    bounds[p + 1 :].tolist(), self.widths[p:].tolist(),
                    self.first.matchings(bounds, p),
                )
            ):
                self._blocks.setdefault(r, RackCostBlock(
                    self.vms[r], regions[i, :width], region_racks[i, :width],
                    self.true_cost[start:end, :width], self.cost[start:end, :width],
                    self.first_min[start:end], first,
                ))
        return self._blocks[rack]

    def __iter__(self) -> Iterator[int]:
        return iter(self._problem)

    def __len__(self) -> int:
        return len(self._problem)


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
) -> CostStack:
    """Alg. 3's round-static inputs for every rack's own region, in one pass.

    *picks* maps a rack to its migration set (duplicate-free VMs of that
    rack); each rack with a non-empty set gets rows of the returned
    :class:`CostStack` (in rack order) against its region's sorted hosts
    (its row of :meth:`Cluster.region_hosts`), padded to the widest
    region — one gather of free capacity and load, one
    :meth:`CostModel.cost_rows` call, one mask, one ``argmin`` over
    :meth:`Cluster.region_hosts`, its padding masked to ``inf``.
    Feasibility is the *snapshot*'s last-known free capacity (dead hosts
    have none): availability net of this round's promises is known only
    to the receivers.  The matching minimizes ``Cost + balance_weight ·
    load`` — among similarly-priced destinations the emptier host wins,
    the mechanism behind Figs. 9/10 — with the load the measured
    *host_load* when given, else the snapshot's fill fraction; a
    *slo_scorer* (``scoring="slo"``) adds its predicted SLO damage.
    ``true_cost`` keeps the raw Eq. (1) value.  Every rack's first
    matching comes from one solve over the whole stack, timed as one
    *profiler* ``matching`` section.
    """
    racks = sorted(rack for rack, vms in picks.items() if vms)
    sizes = [len(picks[rack]) for rack in racks]
    ids = np.asarray([vm for rack in racks for vm in picks[rack]], dtype=np.int64)
    hosts_of, cols_of, widths = cluster.region_hosts()
    rack_ids = np.asarray(racks, dtype=np.int64)
    row_rack = np.repeat(rack_ids, sizes)
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
    damage = None
    if slo_scorer is not None:
        damage = slo_scorer.damage(ids.tolist(), need.tolist())
        cost = cost + slo_scorer.addend(damage, load_frac)
    first_min = _first_min(cost)
    host_rack = cluster.placement.host_rack
    bounds = np.asarray([0, *accumulate(sizes)])
    rack_widths = widths[rack_ids]
    with profiler.section("matching"):
        first = _first_pairs(
            cost, true_cost, first_min, hosts, host_rack, bounds, rack_widths
        )
    return CostStack(
        picks, ids, rack_ids, bounds, rack_widths, hosts, host_rack,
        true_cost, cost, first_min, damage, first,
    )


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


def _sequential_sums(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Each ``values[at[p]:at[p + 1]]`` summed left to right from 0.0, as
    a running ``+=`` adds it (one gather per position)."""
    counts = at[1:] - at[:-1]
    out = np.zeros(counts.size)
    for k in range(int(counts.max(initial=0))):
        has = counts > k
        out[has] += values[at[:-1][has] + k]
    return out


def request_prefix(
    stack: CostStack,
    receivers: ReceiverRegistry,
    reports: RoundReports,
    racks: Sequence[int],
    *,
    alerts_processed: Optional[Sequence[int]] = None,
    preamble: Optional[Callable[[int], None]] = None,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
) -> int:
    """Alg. 3 and Alg. 4 for the clean leading racks of *racks*, as columns.

    *racks* plan in FCFS (ascending) order, each migrating exactly its
    rows of *stack*.  The leading racks that are the stack's first racks
    and clean — every pair of the first matching ACKed, and no row left
    out that a retry could place, so :func:`request_migrations` would stop
    there — are planned here: their REQUESTs admitted by one
    :meth:`~repro.migration.request.ReceiverRegistry.admit`, their rows
    (with *alerts_processed*, one per rack, and the stack's SLO damage)
    appended by one :meth:`RoundReports.add_rows`.  Returns how many; the
    rest are the caller's, in order.  None plan here when there are fewer
    than :data:`_COLUMN_RACKS` racks, or through a port that is not a
    :class:`ReceiverRegistry` (the lossy channel).
    Traced, each rack records what the per-rack loop records: *preamble*
    (the caller's rows of it), its ``MatchingSolved``, then each pair's
    ``RequestSent`` and the receiver's ``RequestAcked``.
    """
    if len(racks) < _COLUMN_RACKS or not isinstance(receivers, ReceiverRegistry):
        return 0
    n = min(len(racks), stack.racks.size)
    own = np.asarray(racks[:n]) == stack.racks[:n]
    m = int(own.argmin()) if not own.all() else n
    first, bounds, at = stack.first, stack.bounds, stack.first.at
    matched = np.zeros(bounds[m], dtype=bool)
    matched[first.rows[: at[m]]] = True
    left = (~matched).nonzero()[0]
    # a rack that placed rows and left out one with a destination retries
    owner = bounds.searchsorted(left, side="right") - 1
    retry = np.isfinite(stack.cost[left]).any(axis=1) & (at[owner + 1] > at[owner])
    if retry.any():
        m = int(owner[retry.argmax()])
    pairs = slice(0, at[m])
    with profiler.section("request"):
        k = receivers.admit(
            stack.ids[first.rows[pairs]], first.hosts[pairs], first.racks[pairs],
            at[1 : m + 1],
        )
    if not k:
        return 0
    rows, acked, width = np.diff(bounds[: k + 1]), np.diff(at[: k + 1]), stack.widths[:k]
    solved = (first.sizes[:k] > 0) & (width > 0)
    moved = first.rows[: at[k]]
    cols = dict(
        rack=stack.racks[:k],
        selected=stack.ids[: bounds[k]],
        selected_ptr=bounds[: k + 1],
        requested=acked,
        acked=acked,
        total_cost=_sequential_sums(first.costs, at[: k + 1]),
        search_space=rows * width,
        iterations=np.where(width > 0, 1 + ((acked > 0) & (rows > acked)), 0),
        unplaced=stack.ids[left[left < bounds[k]]],
        unplaced_ptr=np.concatenate(([0], (rows - acked).cumsum())),
        move_vm=stack.ids[moved],
        move_host=first.hosts[: at[k]],
        move_cost=first.costs[: at[k]],
        moves_ptr=at[: k + 1],
        matching_size=first.sizes[:k][solved],
        matching_ptr=np.concatenate(([0], solved.cumsum())),
    )
    if alerts_processed is not None:
        cols["alerts_processed"] = alerts_processed[:k]
    if stack.damage is not None:
        cols["predicted_slo_damage"] = [
            float(stack.damage[lo:hi].sum()) for lo, hi in zip(bounds[:k], bounds[1 : k + 1])
        ]
    acks = receivers.tracer
    if preamble is not None or tracer.enabled or acks.enabled:
        vms, hosts, dst_racks = stack.ids[moved].tolist(), first.hosts.tolist(), first.racks.tolist()
        for p, rack in enumerate(cols["rack"].tolist()):
            if preamble is not None:
                preamble(rack)
            lo, hi = at[p : p + 2].tolist()
            if tracer.enabled and solved[p]:
                # rack, rows, cols, matched, iteration, fallback, elapsed_s
                tracer.record(MatchingSolved, (
                    rack, int(first.sizes[p]), int(width[p]), hi - lo, 1,
                    bool(first.fallback[p]), float(first.seconds[p]),
                ))
            for vm, host, dst in zip(vms[lo:hi], hosts[lo:hi], dst_racks[lo:hi]):
                if tracer.enabled:
                    tracer.record(RequestSent, (vm, host, dst, rack))
                if acks.enabled:
                    acks.record(RequestAcked, (vm, host, dst))
    reports.add_rows(**cols)
    return k


def request_round(
    stack: CostStack,
    receivers: ReceiverRegistry,
    reports: RoundReports,
    racks: Sequence[int],
    *,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
) -> None:
    """Alg. 3 and Alg. 4 for *racks* in FCFS order, each migrating its
    stack rows: the clean leading racks as columns
    (:func:`request_prefix`), then :func:`request_migrations` rack by
    rack, one row each in *reports*."""
    done = request_prefix(stack, receivers, reports, racks, tracer=tracer, profiler=profiler)
    for rack in racks[done:]:
        block = stack[rack]
        reports.add_row(rack, selected=block.vms)
        request_migrations(
            block, receivers, reports=reports, tracer=tracer, profiler=profiler, rack=rack
        )
