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
* :func:`request_racks` sends every rack's first matching as one
  columnar Alg. 4, plans each rack whose verdicts the sequential loop
  could change on its own, in rack order, and records the others' rows
  in bulk;
* :func:`request_migrations` runs the REQUEST / retry loop over one rack's
  block against the shared receiver registry, for a rack that plans on
  its own — iteration 1 sends the block's first matching, a
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
from itertools import accumulate, chain
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterator, List
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.model import CostModel
from repro.errors import ConfigurationError
from repro.migration.matching import jv_solve_many
from repro.migration.reports import _RAGGED, MigrationStats, RoundReports
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import MatchingSolved, RequestAcked, RequestSent
from repro.obs.profiling import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps the import DAG
    from repro.faults.channel import UnreliableChannel

__all__ = [
    "CostStack",
    "Matching",
    "MigrationStats",
    "RackCostBlock",
    "request_migrations",
    "request_racks",
    "request_round",
    "stack_cost_blocks",
]

_MAX_ITERATIONS = 8
"""Alg. 3 match / REQUEST rounds per shim before the rest stay unplaced."""

_COLUMN_RACKS = 16
"""Fewest racks not known to plan on their own for a :func:`request_racks`
column pass.  On workload rounds (min of 5–7 runs a path, one core) it
costs ≈ 0.35–0.45 ms up to 40 racks, the per-rack loop ≈ 20–40 µs a rack:
it wins from ≈ 18 racks (k = 8) and ≈ 22 (k = 32) with one or two picks
a rack, earlier with more (``selector_fleet_k8``'s 16: 0.56 vs 0.62 ms)."""


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
    matching as columns, and ``regions`` is the fabric's
    :meth:`~repro.topology.base.Topology.rack_regions`.  As a mapping,
    rack → :class:`RackCostBlock`, built on first read: a rack planned
    from the columns (:func:`request_racks`) never has one built.
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
    regions: Tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        self._problem = dict(zip(self.racks.tolist(), range(self.racks.size)))
        self._blocks: Dict[int, RackCostBlock] = {}
        self._lists: Optional[List[list]] = None

    def __getitem__(self, rack: int) -> RackCostBlock:
        if rack not in self._blocks:
            if self._lists is None:  # the first matchings, read once
                f = self.first
                self._lists = [col.tolist() for col in (
                    self.bounds, self.widths, f.at, f.sizes, f.fallback, f.seconds,
                    f.rows, f.hosts, f.racks, f.costs,
                )]
            bounds, widths, at, sizes, fallback, seconds, *pairs = self._lists
            p = self._problem[rack]
            start, end, width = bounds[p], bounds[p + 1], widths[p]
            rows, hosts, racks, costs = (col[at[p] : at[p + 1]] for col in pairs)
            region = self.hosts[start, :width]  # the rack's first row
            self._blocks[rack] = RackCostBlock(
                self.vms[rack], region, self.host_rack[region],
                self.true_cost[start:end, :width], self.cost[start:end, :width],
                self.first_min[start:end],
                Matching(
                    sizes[p], fallback[p], seconds[p], [r - start for r in rows],
                    hosts, racks, costs,
                ),
            )
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
        true_cost, cost, first_min, damage, first, cluster.topology.rack_regions(),
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


def _take(ptr: np.ndarray, p: np.ndarray, has: np.ndarray):
    """Where rows *p* of a ragged column split at *ptr* sit, a row empty
    where not *has*: ``(index into its values, pointers from 0)``."""
    counts = np.where(has, ptr[p + 1] - ptr[p], 0)
    out = np.concatenate(([0], counts.cumsum()))
    return np.repeat(ptr[p] - out[:-1], counts) + np.arange(out[-1]), out


def _head(cols: dict, n: int) -> dict:
    """The first *n* rows of :meth:`RoundReports.add_rows` columns *cols*."""
    out = {name: col[:n] for name, col in cols.items()}
    for ptr, values in _RAGGED:
        out[ptr] = cols[ptr][: n + 1]
        out.update((name, cols[name][: cols[ptr][n]]) for name in values)
    return out


def _own_racks(stack, ok, left, racks, held) -> np.ndarray:
    """Which of *racks* plan on their own, given each stacked rack's
    :meth:`~repro.migration.request.ReceiverRegistry.admit` verdict *ok*
    and the stack rows its first matching *left* out.

    A rack in *held*, a refused one and one whose first matching left out
    a row a retry could place do; so does a rack whose first matching
    asks for a host in the region of an earlier one that does — the only
    hosts a rack planning on its own may ask for, retries included.  The
    last rule is a fixpoint over the fabric's rack × rack region table:
    each pass adds the racks the previous pass's new ones hold back.
    """
    first, bounds, at = stack.first, stack.bounds, stack.first.at
    rk = np.asarray(racks)
    pos = rk.searchsorted(stack.racks)
    own = np.fromiter((rack in held for rack in racks), bool, rk.size)
    own[pos[~ok]] = True
    owner = bounds.searchsorted(left, side="right") - 1
    retry = np.isfinite(stack.cost[left]).any(axis=1) & (at[owner + 1] > at[owner])
    own[pos[owner[retry]]] = True
    table, widths = stack.regions
    pair_owner = np.repeat(np.arange(stack.racks.size), np.diff(at))
    pair_rack = stack.racks[pair_owner]
    # the first rack planning on its own whose region holds each rack
    reach = np.full(table.shape[0], rk.max(initial=0) + 1)
    new = own.copy()
    while new.any():
        anchors = rk[new]
        near = np.arange(table.shape[1]) < widths[anchors][:, None]
        np.minimum.at(reach, table[anchors][near], anchors.repeat(widths[anchors]))
        new[:] = False
        new[pos[pair_owner[reach[first.racks] < pair_rack]]] = True
        new &= ~own
        own |= new
    return own


def request_racks(
    stack: CostStack,
    receivers: Union[ReceiverRegistry, UnreliableChannel],
    reports: RoundReports,
    racks: Sequence[int],
    plan_one: Callable[[int], None],
    *,
    held: Collection[int] = (),
    alerts_processed: Optional[Sequence[int]] = None,
    preamble: Optional[Callable[[int], None]] = None,
    tracer: Tracer = NULL_TRACER,
    profiler=NULL_PROFILER,
) -> None:
    """Alg. 3 and Alg. 4 for *racks* (ascending) in FCFS order.

    Every rack of *stack* is one of *racks*, migrating exactly its stack
    rows unless it is in *held*.  *receivers* is the round's
    :class:`ReceiverRegistry` or a lossy channel wrapping it
    (:class:`~repro.faults.channel.UnreliableChannel`).  One
    :meth:`~repro.migration.request.ReceiverRegistry.admit` on the
    registry checks every stacked rack's first matching against the
    cumulative demand on its destinations; :func:`_own_racks` picks the
    racks whose verdicts can differ from what the sequential loop would
    decide, and *plan_one* plans each of those, in rack order.  Every
    other rack is a column rack: its first matching is wholly ACKed and is
    all it sends, or it has no picks and sends nothing.  The column racks'
    REQUESTs are reserved in their FCFS place, before the next rack that
    plans on its own, and their rows (with *alerts_processed*, one per
    rack of *racks*, and the stack's SLO damage) appended by one
    :meth:`RoundReports.add_rows`, which the record puts in rack order;
    when *plan_one* raises, the rows of the column racks reserved before
    it are still appended.

    Through a channel the pass reads each REQUEST's fate from the loss
    stream (:meth:`~repro.faults.channel.UnreliableChannel.answered`),
    which depends on every REQUEST sent before it: so the pass stops at
    the first rack that plans on its own — also a rack with a REQUEST
    whose every reply is lost or whose destination shim is down — and
    only the racks before it are columns.  Their REQUESTs take their
    draws and retries with one
    :meth:`~repro.faults.channel.UnreliableChannel.take`, and their ACKs
    are cached for a redelivery.  The racks after it get a pass of their
    own.  Racks plan one at a time when fewer than :data:`_COLUMN_RACKS`
    of them are not *held*, or when none is stacked.  Traced, each column
    rack records in its place what the per-rack loop records: *preamble*
    (the caller's rows of it), its ``MatchingSolved``, then each pair's
    ``RequestSent`` and the receiver's ``RequestAcked``.
    """
    done = 0
    while done < len(racks):
        rest = racks[done:]
        # a pass needs a stacked rack among them (the stack's last, then)
        if not len(stack) or stack.racks[-1] < rest[0] or (
            sum(rack not in held for rack in rest) < _COLUMN_RACKS
        ):
            for rack in rest:
                plan_one(rack)
            return
        done += _column_pass(
            stack, receivers, reports, rest, plan_one, held,
            None if alerts_processed is None else alerts_processed[done:],
            preamble, tracer, profiler,
        )


def _column_pass(
    stack, receivers, reports, racks, plan_one, held, alerts_processed, preamble,
    tracer, profiler,
) -> int:
    """:func:`request_racks`' pass over *racks*, the round's racks from the
    first not yet planned on; returns how many of them it planned."""
    channel = None if isinstance(receivers, ReceiverRegistry) else receivers
    registry = receivers if channel is None else channel.inner
    first, bounds, at = stack.first, stack.bounds, stack.first.at
    rk = np.asarray(racks)
    # the stacked racks planned before *racks* count as ACKed and placed
    p0 = int(stack.racks.searchsorted(rk[0]))
    ok = np.ones(stack.racks.size, dtype=bool)
    with profiler.section("request"):
        a0 = at[p0]
        ok[p0:] = registry.admit(
            stack.ids[first.rows[a0:]], first.hosts[a0:], first.racks[a0:],
            at[p0 + 1 :] - a0,
        )
    matched = np.zeros(bounds[-1], dtype=bool)
    matched[first.rows] = True
    matched[: bounds[p0]] = True
    left = (~matched).nonzero()[0]
    own = _own_racks(stack, ok, left, racks, held)
    column = ~own
    # each column row's stack rack, or none (a rack with no picks)
    problem = np.full(rk.size, -1)
    problem[rk.searchsorted(stack.racks[p0:])] = np.arange(p0, stack.racks.size)
    p = problem[column]
    has = p >= 0
    p = np.where(has, p, 0)
    selected, selected_ptr = _take(bounds, p, has)
    pairs, moves_ptr = _take(at, p, has)
    stop = rk.size  # the racks this pass plans
    if channel is not None:
        # the column racks before the first that plans on its own, cut
        # again at the first whose REQUEST goes unanswered
        stop = int(own.argmax()) if own.any() else rk.size
        attempts, draws = channel.answered(first.racks[pairs[: moves_ptr[stop]]])
        unanswered = (attempts < 0).nonzero()[0]
        if unanswered.size:
            stop = int(moves_ptr.searchsorted(unanswered[0], side="right")) - 1
            own[stop] = True
        end = moves_ptr[stop]
        channel.take(int(draws[:end].sum()), int(attempts[:end].sum()))
        stop = min(stop + 1, rk.size)
    unplaced, unplaced_ptr = _take(left.searchsorted(bounds), p, has)
    rows, acked = np.diff(selected_ptr), np.diff(moves_ptr)
    width = np.where(has, stack.widths[p], 0)
    solved = has & (first.sizes[p] > 0) & (width > 0)
    move_vm, move_host = stack.ids[first.rows[pairs]], first.hosts[pairs]
    cols = dict(
        rack=rk[column], selected=stack.ids[selected], selected_ptr=selected_ptr,
        requested=acked, acked=acked,
        total_cost=np.where(has, _sequential_sums(first.costs, at)[p], 0.0),
        search_space=rows * width,
        iterations=np.where(width > 0, 1 + ((acked > 0) & (rows > acked)), 0),
        unplaced=stack.ids[left[unplaced]], unplaced_ptr=unplaced_ptr,
        move_vm=move_vm, move_host=move_host, move_cost=first.costs[pairs],
        moves_ptr=moves_ptr, matching_size=first.sizes[p][solved],
        matching_ptr=np.concatenate(([0], solved.cumsum())),
    )
    if alerts_processed is not None:
        cols["alerts_processed"] = np.asarray(alerts_processed)[column]
    if stack.damage is not None:
        damage = stack.damage[selected]
        cols["predicted_slo_damage"] = [
            float(damage[lo:hi].sum())
            for lo, hi in zip(selected_ptr[:-1].tolist(), selected_ptr[1:].tolist())
        ]
    acks = registry.tracer
    traced = preamble is not None or tracer.enabled or acks.enabled
    # each pair column once, shared by the reservations and the trace rows
    sent = [move_vm.tolist(), move_host.tolist()]
    if traced:
        # the VMs as the picks' own ints, which the caller's trace rows hold
        picks = list(chain.from_iterable(map(stack.vms.__getitem__, stack.racks.tolist())))
        sent[0] = list(map(picks.__getitem__, first.rows[pairs].tolist()))
    if channel is not None or traced:
        sent.append(first.racks[pairs].tolist())
    # the reservations take the racks through a channel, to cache the ACKs
    booked = sent if channel is not None else sent[:2]
    if traced:
        # each column row's MatchingSolved fields and pairs, read in its place
        solves = list(zip(
            cols["rack"].tolist(), first.sizes[p].tolist(), width.tolist(),
            first.fallback[p].tolist(), first.seconds[p].tolist(), solved.tolist(),
            moves_ptr[:-1].tolist(), moves_ptr[1:].tolist(),
        ))
        pair_rows = list(zip(*sent))
    # the column racks before each rack, reserved before it plans on its own
    before = (column.cumsum() - column).tolist()
    cuts = moves_ptr[before].tolist()
    done = kept = j = 0
    try:
        for i in range(stop) if traced else own[:stop].nonzero()[0].tolist():
            if own[i]:
                if cuts[i] > done:
                    registry.reserve(*(col[done : cuts[i]] for col in booked))
                    done = cuts[i]
                kept = before[i]
                plan_one(racks[i])
                continue
            rack, size, hosts, fallback, seconds, solve, lo, hi = solves[j]
            j += 1
            if preamble is not None:
                preamble(rack)
            if tracer.enabled and solve:
                # rack, rows, cols, matched, iteration, fallback, elapsed_s
                tracer.record(
                    MatchingSolved, (rack, size, hosts, hi - lo, 1, fallback, seconds)
                )
            for vm, host, dst in pair_rows[lo:hi]:
                if tracer.enabled:
                    tracer.record(RequestSent, (vm, host, dst, rack))
                if acks.enabled:
                    acks.record(RequestAcked, (vm, host, dst))
        if not own[stop - 1]:
            # the pass ends on a column rack: every column rack is planned
            registry.reserve(*(col[done:] for col in booked))
            kept = len(cols["rack"])
    finally:
        # a rack that raised leaves the rows of the column racks reserved
        reports.add_rows(**_head(cols, kept))
    return stop


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
    stack rows (:func:`request_racks`): :func:`request_migrations` for a
    rack that plans on its own, one row each in *reports*."""

    def plan_one(rack: int) -> None:
        block = stack[rack]
        reports.add_row(rack, selected=block.vms)
        request_migrations(
            block, receivers, reports=reports, tracer=tracer, profiler=profiler,
            rack=rack,
        )

    request_racks(
        stack, receivers, reports, racks, plan_one, tracer=tracer, profiler=profiler
    )
