"""Demand-scenario factory tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.sim import creeping_growth, flash_crowd, host_surges
from repro.topology import build_fattree


@pytest.fixture
def cluster():
    return build_cluster(
        build_fattree(4), hosts_per_rack=2, fill_fraction=0.6, seed=31,
        delay_sensitive_fraction=0.0,
    )


class TestHostSurges:
    def test_schedule_matches_behavior(self, cluster):
        wl, events = host_surges(
            cluster, 120, fraction=0.25, earliest=40, latest=80, seed=2
        )
        assert events
        for e in events:
            before = wl.host_load(max(0, e.start - 5))[e.host]
            after = wl.host_load(min(119, e.start + e.ramp_len + 3))[e.host]
            assert after > before + 0.1

    def test_non_surging_hosts_stay_flat(self, cluster):
        wl, events = host_surges(
            cluster, 120, fraction=0.25, earliest=40, latest=80, seed=3
        )
        surging = {e.host for e in events}
        quiet = [h for h in range(cluster.num_hosts) if h not in surging]
        if not quiet:
            pytest.skip("all hosts surging at this fraction")
        early = wl.host_load(10)
        late = wl.host_load(110)
        for h in quiet:
            assert abs(late[h] - early[h]) < 0.2

    def test_fraction_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            host_surges(cluster, 100, fraction=0.0, earliest=10, latest=50)
        with pytest.raises(ConfigurationError):
            host_surges(cluster, 100, fraction=0.5, earliest=60, latest=50)

    def test_deterministic(self, cluster):
        _, e1 = host_surges(cluster, 100, earliest=20, latest=60, seed=7)
        _, e2 = host_surges(cluster, 100, earliest=20, latest=60, seed=7)
        assert e1 == e2


class TestFlashCrowd:
    def test_whole_rack_surges(self, cluster):
        rack = 1
        wl = flash_crowd(cluster, 100, rack=rack, start=50, seed=4)
        pl = cluster.placement
        for h in pl.hosts_in_rack(rack):
            assert wl.host_load(80)[h] > wl.host_load(30)[h] + 0.2
        # other racks untouched
        other = int(pl.hosts_in_rack(0)[0])
        assert abs(wl.host_load(80)[other] - wl.host_load(30)[other]) < 0.2

    def test_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            flash_crowd(cluster, 100, rack=99, start=10)
        with pytest.raises(ConfigurationError):
            flash_crowd(cluster, 100, rack=0, start=200)


class TestCreepingGrowth:
    def test_monotone_drift(self, cluster):
        wl = creeping_growth(cluster, 120, start_level=0.3, end_level=0.7, seed=5)
        means = [wl.host_load(t).mean() for t in (10, 60, 110)]
        assert means[0] < means[1] < means[2]

    def test_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            creeping_growth(cluster, 100, start_level=0.8, end_level=0.5)
        with pytest.raises(ConfigurationError):
            creeping_growth(cluster, 4)  # shorter than a stream's horizon
