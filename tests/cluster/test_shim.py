"""Shim region / neighbor-rack tests."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.shim import neighbor_racks
from repro.errors import TopologyError
from repro.topology import build_bcube, build_fattree

from tests.regions import region


class TestNeighborRacks:
    def test_fattree_neighbors_are_pod(self):
        t = build_fattree(8)
        half = 4
        # rack 0's one-hop neighbors via its pod aggs = rest of pod 0
        assert neighbor_racks(t, 0) == frozenset(range(1, half))

    def test_bcube_two_level_all_neighbors(self):
        t = build_bcube(6)
        # complete bipartite: every rack is one switch away from every other
        assert neighbor_racks(t, 0) == frozenset(range(1, 6))

    def test_excludes_self(self):
        t = build_fattree(4)
        for r in range(t.num_racks):
            assert r not in neighbor_racks(t, r)

    def test_symmetry(self):
        t = build_fattree(8)
        for a in range(t.num_racks):
            for b in neighbor_racks(t, a):
                assert a in neighbor_racks(t, b)

    def test_out_of_range(self):
        t = build_fattree(4)
        with pytest.raises(TopologyError):
            neighbor_racks(t, 99)


class TestShimView:
    """A shim's view of its region: its rows of the shared region tables."""

    def test_region_contains_self(self, small_cluster):
        table, widths = small_cluster.topology.rack_regions()
        neighbors = frozenset(table[0, : widths[0]].tolist())
        region = neighbors | {0}
        assert 0 in region
        assert neighbors == region - {0}

    def test_candidate_hosts_in_neighbor_racks(self, small_cluster):
        pl = small_cluster.placement
        hosts, _ = region(small_cluster, 0)
        neighbors = neighbor_racks(small_cluster.topology, 0)
        assert hosts.size > 0
        for h in hosts:
            assert int(pl.host_rack[h]) in neighbors
