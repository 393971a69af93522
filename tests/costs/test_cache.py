"""Cost-kernel cache: bit-identical answers, rows that live one generation."""

import pytest

from repro.cluster import build_cluster
from repro.costs.model import CostModel
from repro.costs.transmission import cached_transmission_table
from repro.topology import build_fattree

from tests.property.test_regional_slab import assert_shim_reads_equal_oracle
from tests.regions import region


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


def _read_all(cm, cluster):
    """Every shim reads its own VMs' rows once; the rows, rack by rack."""
    return [
        cm.cost_rows(
            cluster.placement.vms_in_rack(rack),
            region_cols=region(cluster, rack)[1],
        )
        for rack in range(cluster.num_racks)
    ]


def _assert_equals_fresh_model(cm, cluster):
    """Every regional row *cm* serves is the scalar oracle's, computed now."""
    assert_shim_reads_equal_oracle(cluster, [cm], CostModel(cluster))


class TestVectorCache:
    def test_cached_equals_uncached(self, cluster):
        """Slab reads (twice: misses, then hits) equal the uncached scalar
        oracle, bit for bit."""
        warm = CostModel(cluster)
        _assert_equals_fresh_model(warm, cluster)
        assert warm.cache_stats["hits"] == 0
        _assert_equals_fresh_model(warm, cluster)
        assert warm.cache_stats["hits"] == cluster.num_vms

    def test_repeat_query_hits(self, cluster):
        cm = CostModel(cluster)
        _, cols = region(cluster, 0)
        vm = cluster.placement.vms_in_rack(0)[:1]
        a = cm.cost_rows(vm, region_cols=cols)
        b = cm.cost_rows(vm, region_cols=cols)
        # one generation: the second read is the slab's row, not a recompute
        assert a.tobytes() == b.tobytes()
        assert cm.cache_stats["hits"] == 1
        assert cm.cache_stats["misses"] == 1
        assert cm._slots_used == 1

    def test_move_invalidates_vm_and_neighbors_only(self, cluster):
        """A move starts a new generation: every row afterwards — the moved
        VM's, its dependents', anyone's — is what a fresh model answers."""
        cm = CostModel(cluster)
        _read_all(cm, cluster)
        held = cm._slots_used
        assert held == cluster.num_vms
        vm, dst = _movable_pair(cluster)
        cluster.placement.migrate(vm, dst)
        cm.sync_cache()
        assert cm.cache_stats["invalidations"] == held
        assert cm._slots_used == 0
        _assert_equals_fresh_model(cm, cluster)

    def test_lost_vm_entry_dropped_not_repaired(self, cluster):
        cm = CostModel(cluster)
        _read_all(cm, cluster)
        assert cm._slot_of[0] >= 0
        cluster.placement.mark_lost(0)
        cm.sync_cache()
        assert cm._slot_of[0] == -1  # a lost VM has no slot
        _assert_equals_fresh_model(cm, cluster)
        cluster.placement.restore_lost(0)
        cm.sync_cache()
        assert cm._slot_of[0] == -1
        _assert_equals_fresh_model(cm, cluster)

    def test_steady_state_multi_round_hits(self, cluster):
        """The engine's per-round pattern — sync, then the round's reads —
        with a commit between rounds: a round computes each row once, on
        its first read, and every later read of that round is a hit."""
        cm = CostModel(cluster)
        for _ in range(4):
            cm.sync_cache()
            _read_all(cm, cluster)
            _read_all(cm, cluster)
            vm, dst = _movable_pair(cluster)
            cluster.placement.migrate(vm, dst)
        assert cm.cache_stats["hits"] == 4 * cluster.num_vms
        assert cm.cache_stats["misses"] == 4 * cluster.num_vms

    def test_sync_older_than_the_move_ledger_starts_over(self, cluster):
        """There is no move ledger to fall off: however many generations
        pass between two syncs, the model forgets the slab whole and
        answers exactly what a fresh model answers."""
        cm = CostModel(cluster)
        _read_all(cm, cluster)
        pl = cluster.placement
        vm, dst = _movable_pair(cluster)
        src = int(pl.vm_host[vm])
        for k in range(20001):  # odd: vm ends on dst
            pl.migrate(vm, dst if k % 2 == 0 else src)
        _assert_equals_fresh_model(cm, cluster)
        assert cm._cache_gen == pl.generation
        assert cm.cache_stats["invalidations"] == cluster.num_vms
        assert sorted(cm.cache_stats) == [
            "hits", "invalidations", "misses",
        ]
        assert not hasattr(pl, "moves_since")


class TestTransmissionMemo:
    def test_same_topology_same_table(self, cluster):
        t1 = cached_transmission_table(cluster.topology)
        t2 = cached_transmission_table(cluster.topology)
        assert t1 is t2

    def test_cost_models_share_table(self, cluster):
        a = CostModel(cluster)
        b = CostModel(cluster)
        assert a.table is b.table
        assert a.table is cached_transmission_table(cluster.topology)

    def test_knob_change_builds_fresh_table(self, cluster):
        t1 = cached_transmission_table(cluster.topology, delta=1.0)
        t2 = cached_transmission_table(cluster.topology, delta=2.0)
        assert t1 is not t2
