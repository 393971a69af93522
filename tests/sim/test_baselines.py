"""Centralized-optimal and regional planning round tests (Figs. 11-14)."""

import pytest

from repro.cluster import build_cluster
from repro.costs.model import CostModel
from repro.sim import (
    centralized_migration_round,
    inject_fraction_alerts,
    regional_migration_round,
)
from repro.topology import build_fattree


@pytest.fixture
def env():
    cluster = build_cluster(
        build_fattree(8),
        hosts_per_rack=2,
        fill_fraction=0.5,
        skew=0.5,
        seed=77,
        delay_sensitive_fraction=0.0,
    )
    return cluster, CostModel(cluster)


def candidates(cluster, seed=1, fraction=0.05):
    _, vma = inject_fraction_alerts(cluster, fraction, seed=seed)
    return sorted(vma)


class TestCentralized:
    def test_plan_shape(self, env):
        cluster, cm = env
        cands = candidates(cluster)
        plan = centralized_migration_round(cluster, cm, cands)
        assert plan.search_space == len(cands) * cluster.num_hosts
        assert plan.migrations + len(plan.unplaced) == len(cands)
        # planning must not mutate the placement
        cluster.placement.check_invariants()

    def test_apply_mutates(self, env):
        cluster, cm = env
        cands = candidates(cluster)
        before = cluster.placement.vm_host.copy()
        plan = centralized_migration_round(cluster, cm, cands, apply=True)
        moved = int((before != cluster.placement.vm_host).sum())
        assert moved == plan.migrations
        cluster.placement.check_invariants()

    def test_empty_candidates(self, env):
        cluster, cm = env
        plan = centralized_migration_round(cluster, cm, [])
        assert plan.migrations == 0 and plan.total_cost == 0.0

    def test_same_host_forbidden(self, env):
        cluster, cm = env
        cands = candidates(cluster)
        plan = centralized_migration_round(cluster, cm, cands)
        pl = cluster.placement
        for vm, host, _ in plan.moves:
            assert pl.host_of(vm) != host

    def test_cost_is_minimal_for_singleton(self, env):
        """For one candidate, the centralized plan must pick the argmin."""
        cluster, cm = env
        pl = cluster.placement
        vm = candidates(cluster)[0]
        plan = centralized_migration_round(cluster, cm, [vm])
        v = cm.migration_cost_vector(vm)
        feasible_costs = []
        need = int(pl.vm_capacity[vm])
        for h in range(pl.num_hosts):
            if h != pl.host_of(vm) and pl.free_capacity(h) >= need:
                feasible_costs.append(v[int(pl.host_rack[h])])
        assert plan.total_cost == pytest.approx(min(feasible_costs))


class TestRegionalVsCentralized:
    def test_regional_cost_at_least_central_per_move(self, env):
        """On fully-placed rounds, regional total >= centralized total."""
        cluster, cm = env
        cands = candidates(cluster, fraction=0.02)
        reg = regional_migration_round(cluster, cm, cands)
        cen = centralized_migration_round(cluster, cm, cands)
        if not reg.unplaced and not cen.unplaced:
            assert reg.total_cost >= cen.total_cost - 1e-6

    def test_regional_search_space_much_smaller(self, env):
        cluster, cm = env
        cands = candidates(cluster)
        reg = regional_migration_round(cluster, cm, cands)
        cen = centralized_migration_round(cluster, cm, cands)
        assert reg.search_space < cen.search_space / 2

    def test_regional_moves_stay_in_neighborhood(self, env):
        from repro.cluster.shim import neighbor_racks

        cluster, cm = env
        pl = cluster.placement
        cands = candidates(cluster)
        src_rack = {vm: pl.rack_of(vm) for vm in cands}
        reg = regional_migration_round(cluster, cm, cands)
        for vm, host, _ in reg.moves:
            dst = int(pl.host_rack[host])
            assert dst in neighbor_racks(cluster.topology, src_rack[vm])

    def test_apply_commits(self, env):
        cluster, cm = env
        cands = candidates(cluster)
        before = cluster.placement.vm_host.copy()
        reg = regional_migration_round(cluster, cm, cands, apply=True)
        moved = int((before != cluster.placement.vm_host).sum())
        assert moved == len(reg.moves)
