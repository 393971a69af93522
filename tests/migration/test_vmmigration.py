"""VMMIGRATION (Alg. 3) tests, and the scalar oracle of Alg. 3.

The planners run Alg. 3 as two halves: the round-static cost blocks of
every planning rack, with each rack's first matching, in one
``stack_cost_blocks`` pass, then ``request_migrations`` rack by rack.
:func:`build_cost_block` below is the first half's scalar definition —
one rack, Eq. (1) one VM at a time from ``migration_cost_vector``, free
capacity and load from the placement unless a snapshot is given, and the
first matching by :func:`first_matching`, the block-level oracle (one
rack's :func:`_trim_rows` then :func:`_solve`) — and :func:`vmmigration` its
per-rack composition with the REQUEST loop.  The property tests hold the
planners to them bit for bit.
"""

from time import perf_counter
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.shim import neighbor_racks
from repro.cluster.snapshot import FleetSnapshot
from repro.costs.model import CostModel
from repro.migration.reports import MigrationStats, RoundReports
from repro.migration.request import ReceiverRegistry
from repro.errors import MigrationError
from repro.migration.matching import hungarian
from repro.migration.vmmigration import (
    Matching,
    RackCostBlock,
    _first_min,
    _greedy_assign,
    request_migrations,
    stack_cost_blocks,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, RecordingTracer
from repro.sim.regional import regional_migration_round
from repro.topology import build_fattree

from tests.property.test_regional_slab import build_ragged
from tests.regions import region


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


def first_matching(cost, true_cost, hosts, host_racks) -> Matching:
    """Alg. 3's first iteration over one rack's block, the block-level
    oracle: that block's ``_trim_rows`` and ``_solve``, then the valid
    pairs one at a time."""
    if hosts.size == 0:
        return Matching(0, False, 0.0, [], [], [], [])
    rows, sub = _trim_rows(cost, hosts.size)
    if rows.size == 0:
        return Matching(0, False, 0.0, [], [], [], [])
    t0 = perf_counter()
    assignment, fallback = _solve(sub)
    elapsed = perf_counter() - t0
    pairs = [
        (int(r), int(c))
        for r, c in zip(rows, assignment)
        if c >= 0 and np.isfinite(cost[r, c])
    ]
    return Matching(
        int(rows.size),
        fallback,
        elapsed,
        [r for r, _ in pairs],
        [int(hosts[c]) for _, c in pairs],
        [int(host_racks[c]) for _, c in pairs],
        [float(true_cost[r, c]) for r, c in pairs],
    )


def build_cost_block(
    cluster,
    cost_model: CostModel,
    candidates: Sequence[int],
    destination_hosts: Iterable[int],
    *,
    balance_weight: float = 50.0,
    host_load: Optional[np.ndarray] = None,
    snapshot: Optional[FleetSnapshot] = None,
    slo_scorer=None,
) -> RackCostBlock:
    """One rack's :class:`RackCostBlock`, by the scalar definition."""
    vms = [int(v) for v in dict.fromkeys(candidates)]
    hosts = np.asarray(sorted(set(int(h) for h in destination_hosts)), dtype=np.int64)
    pl = cluster.placement
    host_racks = pl.host_rack[hosts]
    if not vms or hosts.size == 0:
        empty = np.empty((len(vms), hosts.size))
        return RackCostBlock(
            vms,
            hosts,
            host_racks,
            empty,
            empty,
            np.full(len(vms), -1),
            first_matching(empty, empty, hosts, host_racks),
        )
    if snapshot is not None:
        free = snapshot.free_capacity(hosts)
    else:
        # Placement.free_capacity over *hosts*: dead hosts report 0
        free = np.where(
            pl.host_alive[hosts], pl.host_capacity[hosts] - pl.host_used[hosts], 0
        )
    if host_load is not None:
        load_frac = np.asarray(host_load, dtype=np.float64)[hosts]
    elif snapshot is not None:
        load_frac = snapshot.host_load[hosts]
    else:
        load_frac = pl.host_used[hosts] / pl.host_capacity[hosts]
    steer = balance_weight * load_frac
    gathered = np.array(
        [cost_model.migration_cost_vector(v)[host_racks] for v in vms]
    ).reshape(len(vms), hosts.size)
    need = pl.vm_capacity[np.asarray(vms, dtype=np.int64)]
    feasible = free[None, :] >= need[:, None]
    true_cost = np.where(feasible, gathered, np.inf)
    # infeasible entries stay inf through the adds (inf + s = inf)
    cost = true_cost + steer[None, :]
    if slo_scorer is not None:
        cost = cost + slo_scorer.addend(
            slo_scorer.damage(vms, need.tolist()), load_frac
        )
    return RackCostBlock(
        vms,
        hosts,
        host_racks,
        true_cost,
        cost,
        _first_min(cost),
        first_matching(cost, true_cost, hosts, host_racks),
    )


def vmmigration(
    cluster,
    cost_model: CostModel,
    candidates: Sequence[int],
    destination_hosts: Iterable[int],
    receivers: ReceiverRegistry,
    *,
    balance_weight: float = 50.0,
    host_load: Optional[np.ndarray] = None,
    tracer=NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    rack: Optional[int] = None,
) -> MigrationStats:
    """Alg. 3 for one rack: the oracle block, then the REQUEST loop, into a
    one-row record written to *metrics* on its own."""
    block = build_cost_block(
        cluster,
        cost_model,
        candidates,
        destination_hosts,
        balance_weight=balance_weight,
        host_load=host_load,
    )
    reports = RoundReports()
    reports.add_row(-1 if rack is None else rack, selected=block.vms)
    request_migrations(block, receivers, reports=reports, tracer=tracer, rack=rack)
    if metrics is not None:
        reports.write_metrics(metrics)
    return reports.migration(0)


@pytest.fixture
def setup():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.4,
        seed=21,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    return cluster, CostModel(cluster)


class TestGreedyAssign:
    def test_prefers_cheap_edges(self):
        c = np.array([[1.0, 9.0], [9.0, 1.0]])
        np.testing.assert_array_equal(_greedy_assign(c), [0, 1])

    def test_handles_inf_rows(self):
        c = np.array([[np.inf, np.inf], [1.0, 2.0]])
        out = _greedy_assign(c)
        assert out[0] == -1 and out[1] == 0

    def test_column_conflicts(self):
        c = np.array([[1.0, np.inf], [2.0, np.inf]])
        out = _greedy_assign(c)
        assert sorted(out.tolist()) == [-1, 0]


class TestVMMigration:
    """Alg. 3 as the Figs. 11–14 round runs it: candidates of one rack."""

    def test_migrates_candidates_to_neighbor_racks(self, setup):
        cluster, cm = setup
        pl = cluster.placement
        neighbors = neighbor_racks(cluster.topology, 0)
        cands = pl.vms_in_rack(0)[:3].tolist()
        plan = regional_migration_round(cluster, cm, cands, apply=True)
        assert plan.migrations == len(cands)
        for vm, host, _ in plan.moves:
            assert int(pl.vm_host[vm]) == host
            assert int(pl.host_rack[host]) in neighbors
        pl.check_invariants()

    def test_cost_accounting_matches_model(self, setup):
        cluster, cm = setup
        pl = cluster.placement
        cands = pl.vms_in_rack(1)[:2].tolist()
        plan = regional_migration_round(cluster, cm, cands)
        # recorded per-move costs must equal the model's (pre-move placement)
        assert plan.moves
        for vm, host, cost in plan.moves:
            dst_rack = int(pl.host_rack[host])
            assert cost == pytest.approx(cm.migration_cost(vm, dst_rack))
        total = sum(c for _, _, c in plan.moves)
        assert plan.total_cost == pytest.approx(total)

    def test_search_space_counts_pairs(self, setup):
        cluster, cm = setup
        hosts = region(cluster, 0)[0]
        cands = cluster.placement.vms_in_rack(0)[:2].tolist()
        plan = regional_migration_round(cluster, cm, cands)
        assert plan.search_space == len(cands) * len(hosts)

    def test_empty_candidates(self, setup):
        cluster, cm = setup
        metrics = MetricsRegistry()
        plan = regional_migration_round(cluster, cm, [], metrics=metrics)
        assert (plan.moves, plan.search_space, plan.unplaced) == ([], 0, [])
        assert metrics.as_dict() == MetricsRegistry().as_dict()

    def test_no_destinations_reports_unplaced(self):
        # rack 4 of the ragged fabric shares a switch with nobody
        cluster = build_cluster(build_ragged(), hosts_per_rack=3, seed=21)
        cm = CostModel(cluster)
        cands = cluster.placement.vms_in_rack(4)[:2].tolist()
        assert len(cands) == 2
        plan = regional_migration_round(cluster, cm, cands)
        assert plan.unplaced == cands
        assert (plan.moves, plan.search_space) == ([], 0)

    def test_duplicates_deduplicated(self, setup):
        cluster, cm = setup
        vmid = int(cluster.placement.vms_in_rack(0)[0])
        plan = regional_migration_round(cluster, cm, [vmid, vmid])
        assert plan.migrations == 1

    def test_oversized_vm_unplaced(self, setup):
        cluster, cm = setup
        pl = cluster.placement
        # pick a candidate and shrink every destination below its size by
        # filling destinations through direct accounting
        vmid = int(pl.vms_in_rack(0)[0])
        hosts = region(cluster, 0)[0]
        for h in hosts:
            pl.host_used[h] = pl.host_capacity[h]  # simulate fully packed
        plan = regional_migration_round(cluster, cm, [vmid])
        assert vmid in plan.unplaced
        # restore for invariant hygiene
        for h in hosts:
            used = pl.vm_capacity[pl.vms_on_host(int(h))].sum()
            pl.host_used[h] = used

    def test_balance_weight_steers_to_empty_hosts(self):
        cluster = build_cluster(
            build_fattree(4),
            hosts_per_rack=2,
            fill_fraction=0.5,
            skew=1.0,
            seed=5,
            dependency_degree=0.0,
            delay_sensitive_fraction=0.0,
        )
        cm = CostModel(cluster)
        pl = cluster.placement
        cands = pl.vms_in_rack(0)[:4].tolist()
        hosts = region(cluster, 0)[0]
        load = pl.host_used[hosts] / pl.host_capacity[hosts]
        plan = regional_migration_round(cluster, cm, cands, balance_weight=1000.0)
        assert plan.moves
        chosen_loads = [load[hosts.tolist().index(h)] for _, h, _ in plan.moves]
        # strongly steered: chosen hosts among the emptier half
        assert np.mean(chosen_loads) <= np.median(load) + 1e-9


class TestSingleRowRequestsItsFirstMinimum:
    """A lone row asks for ``block.first_min`` without trim / solve / gather.

    Every scenario runs twice on identical clusters: as built, and with the
    stored first minima withheld (``-1``), which sends the same block's
    retries through the trim and ``jv_solve_many``.  Requests, verdicts, trace
    events, metrics and ``MigrationStats`` must not tell the two apart.
    """

    @staticmethod
    def _run(n_vms, spoil, withhold):
        cluster = build_cluster(
            build_fattree(4),
            hosts_per_rack=3,
            fill_fraction=0.4,
            seed=21,
            dependency_degree=0.0,
            delay_sensitive_fraction=0.0,
        )
        pl = cluster.placement
        hosts = region(cluster, 0)[0]
        if spoil == "dead":
            pl.host_alive[hosts] = False  # free capacity 0: every pair infeasible
        tracer, metrics = RecordingTracer(), MetricsRegistry()
        reg = ReceiverRegistry(cluster, tracer=tracer)
        block = stack_cost_blocks(
            cluster,
            CostModel(cluster),
            {0: pl.vms_in_rack(0)[:n_vms].tolist()},
            FleetSnapshot(pl),
        )[0]
        if spoil == "promised":
            # the receivers know what the sender's block does not: the last
            # row's favourite host is spoken for (its room is gone), so its
            # REQUEST is REJECTed
            pl.host_alive[hosts[block.first_min[-1]]] = False
        first_min = block.first_min.copy()
        if withhold:
            block.first_min = np.full(n_vms, -1)
        reports = RoundReports()
        reports.add_row(0, selected=block.vms)
        request_migrations(block, reg, reports=reports, tracer=tracer, rack=0)
        reports.write_metrics(metrics)
        stats = reports.migration(0)
        events = [e.as_dict() for e in tracer.events]
        for e in events:
            e.pop("elapsed_s", None)
        return first_min, stats, events, metrics.as_dict()

    @pytest.mark.parametrize(
        "n_vms, spoil, iterations, requested, unplaced",
        [
            (1, None, 1, 1, 0),  # ACK
            (1, "promised", 1, 1, 1),  # REJECT, nothing placed: stop
            (2, "promised", 2, 3, 1),  # ACK + REJECT, one retry alone, REJECT
            (1, "dead", 1, 0, 1),  # no feasible destination: no matching
        ],
    )
    def test_same_as_kuhn_munkres(self, n_vms, spoil, iterations, requested, unplaced):
        first_min, stats, events, metrics = self._run(n_vms, spoil, withhold=False)
        _, km_stats, km_events, km_metrics = self._run(n_vms, spoil, withhold=True)
        assert (first_min >= 0).all() == (spoil != "dead")
        assert stats == km_stats
        assert events == km_events
        assert metrics == km_metrics
        assert stats.iterations == iterations
        assert stats.requested == requested
        assert len(stats.unplaced) == unplaced
        solved = [e for e in events if e["event"] == "MatchingSolved"]
        assert len(solved) == (0 if spoil == "dead" else iterations)
        if iterations == 2:
            assert (solved[-1]["rows"], solved[-1]["matched"]) == (1, 1)
