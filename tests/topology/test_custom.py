"""Custom topology builder tests."""

import pytest

from repro.errors import TopologyError
from repro.topology import from_edge_list
from repro.topology.base import NodeKind


class TestFromEdgeList:
    def test_basic(self):
        topo = from_edge_list(
            ["tor", "tor", "agg"],
            [(0, 2, 1.0, 1.0), (1, 2, 1.0, 1.0)],
        )
        assert topo.num_racks == 2
        assert topo.num_links == 2

    def test_kind_objects_accepted(self):
        topo = from_edge_list(
            [NodeKind.TOR, NodeKind.AGG],
            [(0, 1, 2.0, 1.5)],
        )
        assert topo.links.capacity[0] == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError):
            from_edge_list(["tor", "router"], [(0, 1, 1.0, 1.0)])

    def test_malformed_edge_rejected(self):
        with pytest.raises(TopologyError):
            from_edge_list(["tor", "agg"], [(0, 1, 1.0)])

    def test_validation_enforced(self):
        with pytest.raises(TopologyError):
            from_edge_list(["tor", "tor", "agg"], [(0, 2, 1.0, 1.0)])  # node 1 isolated

    def test_validation_can_be_skipped(self):
        topo = from_edge_list(
            ["tor", "tor", "agg"], [(0, 2, 1.0, 1.0)], validate=False
        )
        assert topo.num_links == 1
