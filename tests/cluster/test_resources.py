"""Workload profile tests."""

import pytest

from repro.cluster.resources import NUM_RESOURCES, ResourceKind, WorkloadProfile
from repro.errors import ConfigurationError


class TestWorkloadProfile:
    def test_max_component(self):
        assert WorkloadProfile(0.1, 0.9, 0.3, 0.4).max_component() == 0.9

    def test_exceeds_is_strict(self):
        w = WorkloadProfile(0.9, 0.1, 0.1, 0.1)
        assert not w.exceeds(0.9)
        assert w.exceeds(0.89)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(1.5, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(-0.1, 0, 0, 0)

    def test_resource_kind_order_matches_names(self):
        assert ResourceKind.CPU == 0
        assert ResourceKind.TRF == NUM_RESOURCES - 1
