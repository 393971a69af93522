"""VMMIGRATION (Alg. 3) tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.shim import ShimView
from repro.costs.model import CostModel
from repro.migration.reports import RoundReports
from repro.migration.request import ReceiverRegistry
from repro.migration.vmmigration import (
    _greedy_assign,
    build_cost_block,
    request_migrations,
    vmmigration,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.topology import build_fattree


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
    return cluster, CostModel(cluster), ReceiverRegistry(cluster)


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
    def test_migrates_candidates_to_neighbor_racks(self, setup):
        cluster, cm, reg = setup
        pl = cluster.placement
        shim = ShimView(cluster, 0)
        cands = pl.vms_in_rack(0)[:3].tolist()
        stats = vmmigration(cluster, cm, cands, shim.candidate_hosts().tolist(), reg)
        assert stats.acked == len(cands)
        moved = reg.commit_round()
        for vm, host in moved:
            assert int(pl.host_rack[host]) in shim.neighbors
        pl.check_invariants()

    def test_cost_accounting_matches_model(self, setup):
        cluster, cm, reg = setup
        pl = cluster.placement
        shim = ShimView(cluster, 1)
        cands = pl.vms_in_rack(1)[:2].tolist()
        stats = vmmigration(
            cluster, cm, cands, shim.candidate_hosts().tolist(), reg, balance_weight=0.0
        )
        # recorded per-move costs must equal the model's (pre-move placement)
        for vm, host, cost in stats.moves:
            dst_rack = int(pl.host_rack[host])
            assert cost == pytest.approx(cm.migration_cost(vm, dst_rack))
        total = sum(c for _, _, c in stats.moves)
        assert stats.total_cost == pytest.approx(total)

    def test_search_space_counts_pairs(self, setup):
        cluster, cm, reg = setup
        shim = ShimView(cluster, 0)
        hosts = shim.candidate_hosts().tolist()
        cands = cluster.placement.vms_in_rack(0)[:2].tolist()
        stats = vmmigration(cluster, cm, cands, hosts, reg)
        assert stats.search_space >= len(cands) * len(hosts)

    def test_empty_candidates(self, setup):
        cluster, cm, reg = setup
        stats = vmmigration(cluster, cm, [], [0, 1], reg)
        assert stats.requested == 0 and stats.acked == 0

    def test_no_destinations_reports_unplaced(self, setup):
        cluster, cm, reg = setup
        cands = cluster.placement.vms_in_rack(0)[:2].tolist()
        stats = vmmigration(cluster, cm, cands, [], reg)
        assert stats.unplaced == cands

    def test_duplicates_deduplicated(self, setup):
        cluster, cm, reg = setup
        shim = ShimView(cluster, 0)
        vmid = int(cluster.placement.vms_in_rack(0)[0])
        stats = vmmigration(
            cluster, cm, [vmid, vmid], shim.candidate_hosts().tolist(), reg
        )
        assert stats.acked == 1

    def test_oversized_vm_unplaced(self, setup):
        cluster, cm, reg = setup
        pl = cluster.placement
        shim = ShimView(cluster, 0)
        # pick a candidate and shrink every destination below its size by
        # filling destinations through direct accounting
        vmid = int(pl.vms_in_rack(0)[0])
        hosts = shim.candidate_hosts()
        for h in hosts:
            pl.host_used[h] = pl.host_capacity[h]  # simulate fully packed
        stats = vmmigration(cluster, cm, [vmid], hosts.tolist(), reg)
        assert vmid in stats.unplaced
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
        shim = ShimView(cluster, 0)
        cands = pl.vms_in_rack(0)[:4].tolist()
        hosts = shim.candidate_hosts()
        load = pl.host_used[hosts] / pl.host_capacity[hosts]
        reg = ReceiverRegistry(cluster)
        stats = vmmigration(
            cluster, cm, cands, hosts.tolist(), reg, balance_weight=1000.0
        )
        chosen_loads = [
            load[hosts.tolist().index(h)] for _, h, _ in stats.moves
        ]
        if stats.moves:
            # strongly steered: chosen hosts among the emptier half
            assert np.mean(chosen_loads) <= np.median(load) + 1e-9


class TestSingleRowRequestsItsFirstMinimum:
    """A lone row asks for ``block.first_min`` without trim / solve / gather.

    Every scenario runs twice on identical clusters: as built, and with the
    stored first minima withheld (``-1``), which sends the same block
    through ``_trim_rows`` and ``hungarian``.  Requests, verdicts, trace
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
        shim = ShimView(cluster, 0)
        hosts = shim.candidate_hosts()
        if spoil == "dead":
            pl.host_alive[hosts] = False  # free capacity 0: every pair infeasible
        tracer, metrics = RecordingTracer(), MetricsRegistry()
        reg = ReceiverRegistry(cluster, tracer=tracer)
        block = build_cost_block(
            cluster,
            CostModel(cluster),
            pl.vms_in_rack(0)[:n_vms].tolist(),
            hosts,
            region_cols=shim.candidate_cols(),
        )
        if spoil == "promised":
            # the receivers know what the sender's block does not: the last
            # row's favourite host is spoken for, so its REQUEST is REJECTed
            reg.promise(int(hosts[block.first_min[-1]]), 10**6)
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
