"""Cluster factory tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.topology import build_bcube, build_fattree


class TestBuildCluster:
    def test_counts(self, fattree4):
        c = build_cluster(fattree4, hosts_per_rack=3, seed=0)
        assert c.num_racks == fattree4.num_racks
        assert c.num_hosts == 3 * fattree4.num_racks
        assert c.num_vms > 0
        c.placement.check_invariants()

    def test_fill_fraction_respected(self, fattree4):
        c = build_cluster(fattree4, fill_fraction=0.5, skew=0.0, seed=1)
        mean_fill = c.placement.host_load_fraction().mean()
        assert 0.4 <= mean_fill <= 0.6

    def test_skew_raises_stddev(self, fattree4):
        flat = build_cluster(fattree4, skew=0.0, seed=2)
        skewed = build_cluster(fattree4, skew=0.9, seed=2)
        assert skewed.workload_std() > flat.workload_std()

    def test_vm_capacity_bounded(self, fattree4):
        c = build_cluster(fattree4, vm_capacity_max=20, seed=3)
        assert int(c.placement.vm_capacity.max()) <= 20
        assert int(c.placement.vm_capacity.min()) >= 1

    def test_delay_sensitive_fraction(self, fattree4):
        c = build_cluster(fattree4, delay_sensitive_fraction=0.5, seed=4)
        frac = c.placement.vm_delay_sensitive.mean()
        assert 0.3 <= frac <= 0.7

    def test_deterministic_given_seed(self, fattree4):
        a = build_cluster(fattree4, seed=9)
        b = build_cluster(fattree4, seed=9)
        np.testing.assert_array_equal(a.placement.vm_host, b.placement.vm_host)
        np.testing.assert_array_equal(a.placement.vm_capacity, b.placement.vm_capacity)

    def test_works_on_bcube(self):
        c = build_cluster(build_bcube(4), seed=5)
        assert c.num_racks == 4
        c.placement.check_invariants()

    def test_rejects_bad_fill(self, fattree4):
        with pytest.raises(ConfigurationError):
            build_cluster(fattree4, fill_fraction=0.0)
        with pytest.raises(ConfigurationError):
            build_cluster(fattree4, fill_fraction=1.5)

    def test_rejects_vm_bigger_than_host(self, fattree4):
        with pytest.raises(ConfigurationError):
            build_cluster(fattree4, vm_capacity_max=200, host_capacity=100)

    def test_rejects_negative_skew(self, fattree4):
        with pytest.raises(ConfigurationError):
            build_cluster(fattree4, skew=-1.0)

    def test_workload_stats(self, small_cluster):
        assert small_cluster.workload_std() >= 0
