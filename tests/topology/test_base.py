"""Tests for the Topology data structure."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.base import LinkTable, NodeKind, Topology


def make_line(n_tor=2, n_switch=1):
    kinds = [NodeKind.TOR] * n_tor + [NodeKind.AGG] * n_switch
    return Topology("line", kinds)


class TestConstruction:
    def test_requires_nodes(self):
        with pytest.raises(TopologyError):
            Topology("empty", [])

    def test_requires_tor(self):
        with pytest.raises(TopologyError):
            Topology("no-tor", [NodeKind.AGG, NodeKind.CORE])

    def test_tor_must_be_prefix(self):
        with pytest.raises(TopologyError):
            Topology("bad", [NodeKind.AGG, NodeKind.TOR])

    def test_num_racks_counts_tor_prefix(self):
        t = Topology("t", [NodeKind.TOR, NodeKind.TOR, NodeKind.AGG])
        assert t.num_racks == 2
        assert t.num_nodes == 3


class TestLinks:
    def test_add_link_returns_sequential_ids(self):
        t = make_line(2, 1)
        assert t.add_link(0, 2, 1.0, 1.0) == 0
        assert t.add_link(1, 2, 1.0, 1.0) == 1
        assert t.num_links == 2

    def test_duplicate_link_rejected_both_orders(self):
        t = make_line()
        t.add_link(0, 2, 1.0, 1.0)
        with pytest.raises(TopologyError):
            t.add_link(0, 2, 1.0, 1.0)
        with pytest.raises(TopologyError):
            t.add_link(2, 0, 1.0, 1.0)

    def test_self_loop_rejected(self):
        t = make_line()
        with pytest.raises(TopologyError):
            t.add_link(1, 1, 1.0, 1.0)

    def test_out_of_range_endpoint_rejected(self):
        t = make_line()
        with pytest.raises(TopologyError):
            t.add_link(0, 99, 1.0, 1.0)

    def test_nonpositive_capacity_rejected(self):
        t = make_line()
        with pytest.raises(TopologyError):
            t.add_link(0, 2, 0.0, 1.0)

    def test_negative_distance_rejected(self):
        t = make_line()
        with pytest.raises(TopologyError):
            t.add_link(0, 2, 1.0, -1.0)

    def test_edge_id_lookup_is_symmetric(self):
        t = make_line()
        eid = t.add_link(0, 2, 5.0, 2.0)
        assert {int(t.links.u[eid]), int(t.links.v[eid])} == {0, 2}
        assert t.has_edge(0, 2)
        assert t.has_edge(2, 0)
        assert not t.has_edge(0, 1)

    def test_link_table_values(self):
        t = make_line()
        t.add_link(0, 2, 5.0, 2.0)
        t.add_link(1, 2, 7.0, 3.0)
        lt = t.links
        assert isinstance(lt, LinkTable)
        assert len(lt) == 2
        np.testing.assert_array_equal(lt.capacity, [5.0, 7.0])
        np.testing.assert_array_equal(lt.distance, [2.0, 3.0])


class TestQueries:
    def test_neighbors_sorted(self):
        t = Topology("t", [NodeKind.TOR] * 3 + [NodeKind.AGG])
        t.add_link(2, 3, 1.0, 1.0)
        t.add_link(0, 3, 1.0, 1.0)
        t.add_link(1, 3, 1.0, 1.0)
        np.testing.assert_array_equal(t.neighbors(3), [0, 1, 2])
        np.testing.assert_array_equal(t.neighbors(0), [3])

    def test_nodes_of_kind(self):
        t = make_line(2, 1)
        np.testing.assert_array_equal(t.nodes_of_kind(NodeKind.TOR), [0, 1])
        np.testing.assert_array_equal(t.nodes_of_kind(NodeKind.AGG), [2])

    def test_racks_and_switches_partition_nodes(self):
        t = make_line(2, 1)
        all_nodes = np.concatenate([t.racks(), t.switches()])
        np.testing.assert_array_equal(np.sort(all_nodes), np.arange(t.num_nodes))

    def test_degree(self):
        t = make_line(2, 1)
        t.add_link(0, 2, 1.0, 1.0)
        t.add_link(1, 2, 1.0, 1.0)
        np.testing.assert_array_equal(t.degree(), [1, 1, 2])


class TestMatrices:
    def test_adjacency_matrix_distance(self):
        t = make_line()
        t.add_link(0, 2, 4.0, 2.5)
        m = t.adjacency_matrix("distance")
        assert m[0, 2] == 2.5 and m[2, 0] == 2.5
        assert np.isinf(m[0, 1])
        assert (np.diagonal(m) == 0).all()

    def test_adjacency_matrix_hops(self):
        t = make_line()
        t.add_link(0, 2, 4.0, 2.5)
        m = t.adjacency_matrix("hops")
        assert m[0, 2] == 1.0

    def test_adjacency_matrix_unknown_weight(self):
        t = make_line()
        t.add_link(0, 2, 4.0, 2.5)
        with pytest.raises(TopologyError):
            t.adjacency_matrix("latency")

    def test_to_networkx_roundtrip(self):
        t = make_line()
        t.add_link(0, 2, 4.0, 2.5)
        t.add_link(1, 2, 3.0, 1.5)
        g = t.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2
        assert g.edges[0, 2]["capacity"] == 4.0
        assert g.nodes[0]["kind"] == "TOR"
