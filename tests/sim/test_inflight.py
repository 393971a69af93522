"""In-flight migration (live-migration window) tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.errors import ConfigurationError, MigrationError
from repro.sim import MigrationTiming, SheriffSimulation, inject_fraction_alerts
from repro.sim.inflight import InFlightTracker
from repro.topology import build_fattree


def make_cluster(seed=21):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        fill_fraction=0.5,
        skew=0.8,
        seed=seed,
        delay_sensitive_fraction=0.0,
        dependency_degree=0.0,
    )


class TestMigrationTiming:
    def test_bigger_vms_take_longer(self):
        timing = MigrationTiming(round_seconds=10.0)
        small, _ = timing.rounds_for(2)
        big, _ = timing.rounds_for(20)
        assert big >= small >= 1

    def test_fast_network_one_round(self):
        timing = MigrationTiming(
            mem_per_capacity_mb=1.0, bandwidth_mbps=1000.0, round_seconds=60.0
        )
        rounds, tl = timing.rounds_for(20)
        assert rounds == 1
        assert tl.downtime <= 0.06 + 1e-9

    @pytest.mark.parametrize(
        "field, value",
        [
            ("round_seconds", 0.0),
            ("round_seconds", -60.0),
            ("mem_per_capacity_mb", 0.0),
            ("bandwidth_mbps", -1.0),
            ("downtime_target", 0.0),
            ("dirty_fraction", -0.01),
            ("round_seconds", float("nan")),
            ("dirty_fraction", float("inf")),
        ],
    )
    def test_bad_field_is_refused_by_name(self, field, value):
        # refused at construction, not mid-run: a zero round length divides
        # by zero inside a commit, and a negative one lands every migration
        # in one round
        with pytest.raises(ConfigurationError, match=f"MigrationTiming.{field}"):
            MigrationTiming(**{field: value})

    def test_non_converging_dirty_fraction_stays_a_migration_error(self):
        timing = MigrationTiming(dirty_fraction=1.5)
        with pytest.raises(MigrationError):
            timing.rounds_for(4)


class TestTracker:
    def test_start_holds_capacity_until_completion(self):
        cluster = make_cluster()
        pl = cluster.placement
        timing = MigrationTiming(round_seconds=10.0)  # multi-round windows
        tracker = InFlightTracker(cluster, timing)
        vm = 0
        src = pl.host_of(vm)
        need = int(pl.vm_capacity[vm])
        dst = next(
            h for h in range(pl.num_hosts) if h != src and pl.free_capacity(h) >= need
        )
        done_at = tracker.start(vm, dst, now=0)
        assert done_at >= 1
        assert vm in tracker.vms_in_flight
        assert tracker.hold_on(dst) == need
        # placement untouched while in flight
        assert pl.host_of(vm) == src
        # completion lands the VM and releases the hold
        [rec] = tracker.complete_due(done_at)
        assert (rec.vm, rec.src_host, rec.dst_host) == (vm, src, dst)
        assert pl.host_of(vm) == dst
        assert tracker.hold_on(dst) == 0
        pl.check_invariants()

    def test_double_start_rejected(self):
        cluster = make_cluster()
        pl = cluster.placement
        tracker = InFlightTracker(cluster, MigrationTiming(round_seconds=10.0))
        vm = 0
        dst = next(
            h
            for h in range(pl.num_hosts)
            if h != pl.host_of(vm) and pl.free_capacity(h) >= int(pl.vm_capacity[vm])
        )
        tracker.start(vm, dst, now=0)
        with pytest.raises(MigrationError):
            tracker.start(vm, dst, now=0)

    def test_hold_blocks_overbooking(self):
        cluster = make_cluster()
        pl = cluster.placement
        tracker = InFlightTracker(cluster, MigrationTiming(round_seconds=10.0))
        # fill one destination's free capacity with holds
        dst = int(np.argmax([pl.free_capacity(h) for h in range(pl.num_hosts)]))
        started = 0
        with pytest.raises(MigrationError):
            for vm in range(pl.num_vms):
                if pl.host_of(vm) != dst:
                    tracker.start(vm, dst, now=0)
                    started += 1
        assert started >= 1  # some fit before the hold saturated


class TestEngineIntegration:
    def test_migrations_land_after_window(self):
        cluster = make_cluster()
        timing = MigrationTiming(round_seconds=5.0)  # long windows in rounds
        sim = SheriffSimulation(cluster, SheriffConfig(migration_timing=timing))
        before = cluster.placement.vm_host.copy()
        alerts, vma = inject_fraction_alerts(cluster, 0.1, time=0, seed=5)
        s0 = sim.run_round(alerts, vma)
        assert s0.migrations >= 1  # accepted & started
        # nothing has physically moved yet
        np.testing.assert_array_equal(before, cluster.placement.vm_host)
        assert len(sim.inflight.vms_in_flight) == s0.migrations
        # idle rounds until every window elapses
        for _ in range(20):
            sim.run_round([], {})
            if not sim.inflight.vms_in_flight:
                break
        assert not sim.inflight.vms_in_flight
        moved = int((before != cluster.placement.vm_host).sum())
        assert moved == s0.migrations
        cluster.placement.check_invariants()

    def test_inflight_vm_not_reselected(self):
        cluster = make_cluster()
        timing = MigrationTiming(round_seconds=1.0)  # very long windows
        sim = SheriffSimulation(cluster, SheriffConfig(migration_timing=timing))
        alerts, vma = inject_fraction_alerts(cluster, 0.1, time=0, seed=6)
        s0 = sim.run_round(alerts, vma)
        flying = set(sim.inflight.vms_in_flight)
        assert flying
        # same alerts again: in-flight VMs must not move twice
        s1 = sim.run_round(alerts, vma)
        for rep in s1.reports:
            for vm, _, _ in rep.migration.moves:
                assert vm not in flying

    def test_instant_mode_unchanged(self):
        cluster = make_cluster()
        sim = SheriffSimulation(cluster)  # no timing: legacy instant commit
        before = cluster.placement.vm_host.copy()
        alerts, vma = inject_fraction_alerts(cluster, 0.1, time=0, seed=7)
        s = sim.run_round(alerts, vma)
        moved = int((before != cluster.placement.vm_host).sum())
        assert moved == s.migrations
