"""Cost-kernel cache: bit-identical answers, precise invalidation."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.placement import _MOVE_LEDGER_CAP
from repro.costs.model import CostModel
from repro.costs.transmission import (
    cached_transmission_table,
    transmission_table_cache_stats,
)
from repro.topology import build_fattree


@pytest.fixture
def cluster():
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.5,
        skew=0.6,
        seed=7,
        delay_sensitive_fraction=0.0,
    )


def _movable_pair(cluster):
    """A (vm, dst_host) pair in different racks with room for the move."""
    pl = cluster.placement
    for vm in range(cluster.num_vms):
        src = int(pl.vm_host[vm])
        need = float(pl.vm_capacity[vm])
        for host in range(pl.num_hosts):
            if pl.host_rack[host] == pl.host_rack[src]:
                continue
            if pl.free_capacity(host) >= need:
                return vm, host
    pytest.skip("no feasible cross-rack move in this cluster")


class TestVectorCache:
    def test_cached_equals_uncached(self, cluster):
        warm = CostModel(cluster, cache=True)
        cold = CostModel(cluster, cache=False)
        for vm in range(min(cluster.num_vms, 20)):
            np.testing.assert_array_equal(
                warm.migration_cost_vector(vm), cold.migration_cost_vector(vm)
            )

    def test_repeat_query_hits(self, cluster):
        cm = CostModel(cluster, cache=True)
        a = cm.migration_cost_vector(0)
        b = cm.migration_cost_vector(0)
        assert a is b  # shared read-only vector, not a recompute
        assert cm.cache_stats["hits"] == 1
        assert cm.cache_stats["misses"] == 1

    def test_move_invalidates_vm_and_neighbors_only(self, cluster):
        cm = CostModel(cluster, cache=True)
        vm, dst = _movable_pair(cluster)
        neighbors = {int(n) for n in cluster.dependencies.neighbors(vm)}
        untouched = next(
            u
            for u in range(cluster.num_vms)
            if u != vm and u not in neighbors
        )
        # populate enough entries that the targeted (non-wholesale)
        # invalidation path runs: 1 move * 4 < cache size
        for u in range(cluster.num_vms):
            cm.migration_cost_vector(u)
        kept = cm.migration_cost_vector(untouched)
        cluster.placement.migrate(vm, dst)
        fresh = cm.migration_cost_vector(vm)  # triggers sync
        assert cm.cache_stats["invalidations"] >= 1
        # the stale entry was repaired in place, not just dropped
        assert cm.cache_stats["repairs"] >= 1
        # the moved VM's vector reflects its new source rack
        cold = CostModel(cluster, cache=False)
        np.testing.assert_array_equal(fresh, cold.migration_cost_vector(vm))
        # an unrelated VM's entry survived (same object, no recompute)
        assert cm.migration_cost_vector(untouched) is kept

    def test_lost_vm_entry_dropped_not_repaired(self, cluster):
        cm = CostModel(cluster, cache=True)
        cm.migration_cost_vector(0)
        cluster.placement.mark_lost(0)
        cm.sync_cache()
        assert 0 not in cm._vec_cache
        cluster.placement.restore_lost(0)

    def test_steady_state_multi_round_hits(self, cluster):
        """Regression: repeated planning rounds must hit, not rebuild.

        Simulates the engine's per-round pattern — sync, then query a
        largely-overlapping working set — with a few commits in between.
        Before the incremental repair the sync dropped huge swaths of the
        cache every round and the hit count stayed at 0."""
        cm = CostModel(cluster, cache=True)
        working_set = list(range(min(cluster.num_vms, 30)))
        for _ in range(4):
            cm.sync_cache()
            for u in working_set:
                cm.migration_cost_vector(u)
            vm, dst = _movable_pair(cluster)
            cluster.placement.migrate(vm, dst)
        assert cm.cache_stats["hits"] > 0
        # the second round onwards should be nearly all hits
        assert cm.cache_stats["hits"] > cm.cache_stats["misses"]

    def test_sync_older_than_the_move_ledger_starts_over(self, cluster):
        """A model that last synced more moves ago than the placement
        remembers answers exactly what a fresh model answers."""
        cm = CostModel(cluster, cache=True)
        everyone = list(range(cluster.num_vms))
        cm.cost_rows(everyone)
        pl = cluster.placement
        vm, dst = _movable_pair(cluster)
        src = int(pl.vm_host[vm])
        for k in range(_MOVE_LEDGER_CAP + 1):  # odd: vm ends on dst
            pl.migrate(vm, dst if k % 2 == 0 else src)
        assert pl.moves_since(cm._cache_gen) is None
        rows = cm.cost_rows(everyone)
        assert rows.tobytes() == CostModel(cluster).cost_rows(everyone).tobytes()
        assert cm._cache_gen == pl.generation
        assert cm.cache_stats["invalidations"] == cluster.num_vms
        assert sorted(cm.cache_stats) == [
            "hits", "invalidations", "misses", "primed", "repairs",
        ]

    def test_stats_disabled_path(self, cluster):
        cm = CostModel(cluster, cache=False)
        cm.migration_cost_vector(0)
        cm.migration_cost_vector(0)
        assert cm.cache_stats == {
            "hits": 0, "misses": 0, "invalidations": 0, "repairs": 0,
            "primed": 0,
        }


class TestTransmissionMemo:
    def test_same_topology_same_table(self, cluster):
        t1 = cached_transmission_table(cluster.topology)
        t2 = cached_transmission_table(cluster.topology)
        assert t1 is t2

    def test_cost_models_share_table(self, cluster):
        before = transmission_table_cache_stats()
        a = CostModel(cluster, cache=True)
        b = CostModel(cluster, cache=True)
        after = transmission_table_cache_stats()
        assert a.table is b.table
        # at most one build for this topology across both constructions
        assert after["builds"] - before["builds"] <= 1
        assert after["hits"] > before["hits"]

    def test_knob_change_builds_fresh_table(self, cluster):
        t1 = cached_transmission_table(cluster.topology, delta=1.0)
        t2 = cached_transmission_table(cluster.topology, delta=2.0)
        assert t1 is not t2
