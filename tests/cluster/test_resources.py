"""Workload profile tests."""

from repro.cluster.resources import NUM_RESOURCES, ResourceKind


class TestWorkloadProfile:
    def test_resource_kind_order_matches_names(self):
        assert ResourceKind.CPU == 0
        assert ResourceKind.TRF == NUM_RESOURCES - 1
