"""Eq. (1) at regional width: the region index, the stacked kernel, the slab.

A shim reads its cost rows at the width of its one-hop region, out of one
slab that lives a placement generation.  Three things are on trial here,
on fat-tree(4), BCube(4, 2) and a hand-built fabric whose regions are
ragged (widths 3, 3, 2, 2, 0), with a direct rack-rack link and distances
that are not integers:

* the region index is the sorted :func:`neighbor_racks` of every rack;
* whatever happened to the placement and the fabric, what a shim reads by
  region column is the scalar oracle's vector (``migration_cost_vector``,
  never cached) at its destination racks, bit for bit;
* the cost model owns what it keeps — no retained array is a view.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.cluster.shim import neighbor_racks
from repro.config import SheriffConfig
from repro.costs.model import CostModel
from repro.errors import CapacityError, PlacementError, TopologyError
from repro.migration.reroute import FlowTable
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.topology import build_bcube, build_fattree
from repro.topology.custom import from_edge_list

from tests.regions import region

common = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build_ragged():
    """Five racks, four switches, every region a different shape.

    Rack 0 is the hub (on switches 5 and 6, so adjacent to racks 1-3);
    racks 1 and 3 also share a direct link; rack 4 hangs off switch 8
    alone, which reaches the rest through switches 5 and 7 — so rack 4 is
    connected but shares a switch with nobody: an empty region.
    """
    kinds = ["tor"] * 5 + ["agg"] * 4
    edges = [
        (0, 5, 10.0, 1.37), (1, 5, 10.0, 0.73), (2, 5, 10.0, 2.11),
        (0, 6, 10.0, 1.91), (3, 6, 10.0, 0.59),
        (1, 7, 10.0, 1.13), (3, 7, 10.0, 1.71),
        (1, 3, 1.0, 3.3),
        (4, 8, 10.0, 0.41), (8, 5, 10.0, 1.07), (8, 7, 10.0, 2.23),
    ]
    return from_edge_list(kinds, edges, name="ragged")


FABRICS = {
    "fattree4": lambda: build_fattree(4),
    "bcube4x2": lambda: build_bcube(4, 2),
    "ragged": build_ragged,
}


def fabric_cluster(fabric, seed):
    cluster = build_cluster(
        FABRICS[fabric](),
        hosts_per_rack=3,
        fill_fraction=0.55,
        skew=0.8,
        dependency_degree=1.5,
        seed=seed,
        delay_sensitive_fraction=0.1,
    )
    # one hub VM past numpy's pairwise-summation block of 8
    deps = cluster.dependencies
    for other in range(1, min(cluster.num_vms, 11)):
        if other not in deps.neighbors(0):
            deps.add_pair(0, other)
    assert len(deps.neighbors(0)) >= 8
    return cluster


# --------------------------------------------------------------------- #
# (c) the region index
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_region_index_is_the_sorted_neighbor_racks(fabric):
    check_region_index(fabric_cluster(fabric, seed=3))


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_region_hosts_when_host_ids_do_not_run_rack_by_rack(fabric):
    cluster = fabric_cluster(fabric, seed=3)
    host_rack = cluster.placement.host_rack
    host_rack[:] = np.random.default_rng(5).permutation(host_rack)
    check_region_index(cluster)


def check_region_index(cluster):
    topo = cluster.topology
    table, widths = topo.rack_regions()
    assert topo.rack_regions()[0] is table  # built once per fabric
    assert table.base is None and widths.base is None
    host_rack = cluster.placement.host_rack
    hosts_of, cols_of, reach = cluster.region_hosts()
    assert cluster.region_hosts()[0] is hosts_of  # built once per cluster
    for rack in range(topo.num_racks):
        assert (hosts_of[rack, reach[rack]:] == 0).all()  # the padding
        assert (cols_of[rack, reach[rack]:] == 0).all()
        got_hosts, got_cols = region(cluster, rack)
        assert got_hosts.base is hosts_of
        want = sorted(neighbor_racks(topo, rack))
        assert table[rack, : widths[rack]].tolist() == want
        assert (table[rack, widths[rack]:] == rack).all()  # the padding
        hosts = np.nonzero(np.isin(host_rack, want))[0]
        np.testing.assert_array_equal(got_hosts, hosts)
        np.testing.assert_array_equal(table[rack, got_cols], host_rack[hosts])


def test_ragged_fabric_has_an_empty_region_and_a_hub():
    _, widths = build_ragged().rack_regions()
    assert widths.tolist() == [3, 3, 2, 2, 0]


def test_region_index_follows_a_new_link():
    topo = build_ragged()
    assert topo.rack_regions()[1][4] == 0
    topo.add_link(4, 6, 10.0, 1.0)
    table, widths = topo.rack_regions()
    assert table[4, : widths[4]].tolist() == [0, 3]


# --------------------------------------------------------------------- #
# (a) a shim's read equals the oracle's vector, bit for bit
# --------------------------------------------------------------------- #
def assert_shim_reads_equal_oracle(cluster, models, oracle):
    pl = cluster.placement
    for rack in range(cluster.num_racks):
        hosts, cols = region(cluster, rack)
        vms = pl.vms_in_rack(rack)
        racks = pl.host_rack[hosts]
        want = [oracle.migration_cost_vector(int(v))[racks] for v in vms]
        want = np.asarray(want).reshape(len(vms), racks.size)
        for cm in models:
            by_col = cm.cost_rows(vms, region_cols=cols)
            assert by_col.tobytes() == want.tobytes()


class ScalarOracleModel(CostModel):
    """A cost model that answers every row from the scalar oracle.

    ``cost_rows`` stacks :meth:`CostModel.migration_cost_vector` (computed
    on every call, never cached) and gathers the racks asked for, so a
    reference built on it shares neither the slab nor the stacked kernel
    with the model under test.
    """

    def cost_rows(self, vms, *, region_cols):
        ids = np.asarray(vms, dtype=np.int64)
        full = np.array(
            [self.migration_cost_vector(int(v)) for v in ids]
        ).reshape(ids.size, self.table.num_racks)
        pl = self.cluster.placement
        regions = self.cluster.topology.rack_regions()[0]
        rows = np.arange(ids.size)[:, None]
        dest = regions[pl.host_rack[pl.vm_host[ids]]][rows, region_cols]
        return full[rows, dest]


def survivable_switch(fabric, rng):
    """Fail a switch whose loss leaves every rack reachable."""
    topo = fabric.topology
    for sw in rng.permutation(np.arange(topo.num_racks, topo.num_nodes)):
        fabric.fail(int(sw))
        if not fabric.disconnected_racks():
            return int(sw)
        fabric.recover(int(sw))
    raise TopologyError("every switch failure partitions this fabric")


@common
@given(
    st.sampled_from(sorted(FABRICS)),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(["move", "lose", "restore", "fail"]), max_size=10),
)
def test_shim_rows_equal_the_oracle_through_moves_losses_and_rebuilds(
    fabric, seed, ops
):
    cluster = fabric_cluster(fabric, seed)
    pl = cluster.placement
    rng = np.random.default_rng(seed)
    fabric = FlowTable(cluster.topology)
    models = [CostModel(cluster)]
    oracle = CostModel(cluster)
    assert_shim_reads_equal_oracle(cluster, models, oracle)
    for op in ops:
        if op == "move":
            try:
                pl.migrate(
                    int(rng.integers(0, cluster.num_vms)),
                    int(rng.integers(0, pl.num_hosts)),
                )
            except (CapacityError, PlacementError):
                continue
        elif op == "lose":
            vm = int(rng.integers(0, cluster.num_vms))
            if vm in pl.lost_vms:
                continue
            pl.mark_lost(vm)
        elif op == "restore":
            if not pl.lost_vms:
                continue
            pl.restore_lost(min(pl.lost_vms))
        elif fabric.failed:
            fabric.recover(min(fabric.failed))
        else:
            survivable_switch(fabric, rng)
        if op == "fail":
            # SWITCH_FAIL / SWITCH_RECOVER: the model is rebuilt whole
            models = [
                CostModel(cluster, available_bandwidth=fabric.available_bandwidth())
            ]
            oracle = CostModel(
                cluster, available_bandwidth=fabric.available_bandwidth()
            )
        assert_shim_reads_equal_oracle(cluster, models, oracle)


# --------------------------------------------------------------------- #
# (b) ownership: nothing the model keeps can pin a temporary
# --------------------------------------------------------------------- #
def retained_arrays(obj):
    for name, value in vars(obj).items():
        values = value.values() if isinstance(value, dict) else [value]
        for v in values:
            if isinstance(v, np.ndarray):
                yield name, v


def test_cost_model_owns_every_array_it_retains():
    cluster = build_cluster(
        build_fattree(8), hosts_per_rack=4, fill_fraction=0.5, seed=11
    )
    sim = SheriffSimulation(cluster, SheriffConfig())
    peak = 0
    for r in range(30):
        sim.run_round(*inject_fraction_alerts(cluster, 0.05, time=r, seed=11 + r))
        peak = max(peak, sim.cost_model._slots_used)
    cm = sim.cost_model
    assert peak > 0 and cm.cache_stats["invalidations"] > 0
    for name, arr in retained_arrays(cm):
        assert arr.base is None, f"{name} is a view of another array"
    width = int(cluster.topology.rack_regions()[1].max())
    assert width == 3 < cluster.num_racks
    assert cm._slab.shape[1] == width
    assert len(cm._slab) <= 2 * peak
    cached_bytes = cm._slab.nbytes + cm._slot_of.nbytes
    assert cached_bytes <= 2 * peak * width * 8 + cluster.num_vms * 8
