"""Fault injection through the engine: crash, recover, shim outage, abort."""

import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.sim.inflight import MigrationTiming
from repro.topology import build_bcube, build_fattree


@pytest.fixture
def cluster():
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.5,
        skew=0.7,
        seed=99,
        delay_sensitive_fraction=0.0,
    )


def busy_host(cluster):
    pl = cluster.placement
    for h in range(pl.num_hosts):
        if len(pl.vms_on_host(h)) > 0:
            return h
    pytest.skip("fixture has no occupied host")


class TestHostCrash:
    def test_residents_evacuated_or_lost(self, cluster):
        host = busy_host(cluster)
        residents = [int(v) for v in cluster.placement.vms_on_host(host)]
        metrics = MetricsRegistry()
        cfg = SheriffConfig(
            metrics=metrics,
            fault_schedule=FaultSchedule(
                [FaultSpec(FaultKind.HOST_CRASH, target=host, at_round=1)]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        sim.run_round([], {})
        s = sim.run_round([], {})
        assert s.faults == 1
        pl = cluster.placement
        assert not pl.host_alive[host]
        for vm in residents:
            if vm in pl.lost_vms:
                assert pl.host_of(vm) == host  # capacity stays booked
            else:
                assert pl.host_of(vm) != host  # emergency-evacuated
        pl.check_invariants()
        evac = metrics.total("sheriff_vms_evacuated_total")
        lost = metrics.total("sheriff_vms_lost_total")
        assert evac + lost == len(residents)

    def test_recover_restores_lost_vms(self, cluster):
        host = busy_host(cluster)
        cfg = SheriffConfig(
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.HOST_CRASH, target=host, at_round=0),
                    FaultSpec(FaultKind.HOST_RECOVER, target=host, at_round=1),
                ]
            )
        )
        sim = SheriffSimulation(cluster, cfg)
        sim.run_round([], {})
        assert not cluster.placement.host_alive[host]
        sim.run_round([], {})
        pl = cluster.placement
        assert pl.host_alive[host]
        assert not pl.lost_vms
        pl.check_invariants()

    def test_crash_then_rounds_keep_completing(self, cluster):
        host = busy_host(cluster)
        cfg = SheriffConfig(
            fault_schedule=FaultSchedule(
                [FaultSpec(FaultKind.HOST_CRASH, target=host, at_round=0)]
            )
        )
        sim = SheriffSimulation(cluster, cfg)
        for r in range(4):
            alerts, vma = inject_fraction_alerts(
                cluster, 0.1, time=r, seed=40 + r
            )
            sim.run_round(alerts, vma)
            cluster.placement.check_invariants()
        # nothing ever migrates onto the dead host
        assert cluster.placement.free_capacity(host) == 0

    def test_evacuation_registry_refuses_a_hold_blocked_host(self, cluster):
        # in-flight arrivals hold the crashed host's region full; the
        # evacuation's receiver shares the engine's tracker, so it refuses
        # those hosts (capacity-hold) though their placement looks free
        host = busy_host(cluster)
        tracer = RecordingTracer()
        cfg = SheriffConfig(
            tracer=tracer,
            migration_timing=MigrationTiming(round_seconds=1.0),  # long windows
            fault_schedule=FaultSchedule(
                [FaultSpec(FaultKind.HOST_CRASH, target=host, at_round=0)]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        pl, tracker = cluster.placement, sim.inflight
        residents = [int(v) for v in pl.vms_on_host(host)]
        rack = int(pl.host_rack[host])
        hosts, _, widths = cluster.region_hosts()
        region = hosts[rack, : widths[rack]].tolist()
        for dst in region:
            for vm in range(pl.num_vms):
                need = int(pl.vm_capacity[vm])
                if (
                    pl.host_of(vm) not in (host, dst)
                    and vm not in tracker
                    and pl.free_capacity(dst) - tracker.hold_on(dst) >= need
                ):
                    tracker.start(vm, dst, now=0)
        smallest = min(int(pl.vm_capacity[vm]) for vm in residents)
        blocked = {
            h for h in region
            if h != host and pl.free_capacity(h) - tracker.hold_on(h) < smallest
        }
        assert blocked
        sim.run_round([], {})
        assert not pl.host_alive[host]
        assert not {pl.host_of(vm) for vm in residents} & blocked
        refused = {
            e.dst_host
            for e in tracer.of_kind("RequestRejected")
            if e.reason == "capacity-hold"
        }
        assert refused and refused <= blocked
        for h in range(pl.num_hosts):
            if pl.host_alive[h]:
                assert pl.free_capacity(h) - tracker.hold_on(h) >= 0
        pl.check_invariants()

    def test_evacuation_respects_inflight_holds(self):
        # bench/README.md's repro cut to 16 rounds: the second crash used to
        # evacuate a VM onto room held for an in-flight arrival, and that
        # arrival's landing raised CapacityError in round 15
        cluster = build_cluster(
            build_fattree(8), hosts_per_rack=40, fill_fraction=0.5, seed=2015,
            delay_sensitive_fraction=0.1,
        )
        crashes = [
            FaultSpec(FaultKind.HOST_CRASH, target=97 * i, at_round=5 + 10 * i)
            for i in range(2)
        ]
        cfg = SheriffConfig(
            migration_timing=MigrationTiming(),
            fault_schedule=FaultSchedule(crashes, seed=2015),
        )
        sim = SheriffSimulation(cluster, cfg)
        for r in range(16):
            alerts, vma = inject_fraction_alerts(cluster, 0.05, time=r, seed=2015 + r)
            sim.run_round(alerts, vma)
        assert sum(s.faults for s in sim.history) == 2
        cluster.placement.check_invariants()


class TestShimOutage:
    def test_down_rack_is_skipped_and_round_degrades(self, cluster):
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=0, seed=7)
        if not alerts:
            pytest.skip("no alerts generated")
        down = alerts[0].rack
        metrics = MetricsRegistry()
        cfg = SheriffConfig(
            metrics=metrics,
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(
                        FaultKind.SHIM_DOWN, target=down, at_round=0,
                        duration=1,
                    )
                ]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        s = sim.run_round(alerts, vma)
        assert s.degraded
        # the silent delegation planned nothing: its rack has no row, and
        # the round's alerts counter holds only the live racks' rows
        assert down not in s.reports.rack.tolist()
        assert metrics.counter("sheriff_shim_alerts_total").value == s.reports.total(
            "alerts_processed"
        )
        cluster.placement.check_invariants()
        # duration=1 expired: the next round is back to normal
        s2 = sim.run_round([], {})
        assert not s2.degraded
        # and, up again, the rack plans the same alerts: it has its row
        assert down in sim.run_round(alerts, vma).reports.rack.tolist()

    def test_explicit_shim_up(self, cluster):
        cfg = SheriffConfig(
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.SHIM_DOWN, target=0, at_round=0),
                    FaultSpec(FaultKind.SHIM_UP, target=0, at_round=2),
                ]
            )
        )
        sim = SheriffSimulation(cluster, cfg)
        assert sim.run_round([], {}).degraded
        assert sim.run_round([], {}).degraded  # no duration: still down
        assert not sim.run_round([], {}).degraded


class TestMigrationAbort:
    def test_inflight_abort_rolls_back(self, cluster):
        cfg = SheriffConfig(
            migration_timing=MigrationTiming(),
            fault_schedule=FaultSchedule(
                [FaultSpec(FaultKind.MIGRATION_ABORT, at_round=1)]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=0, seed=5)
        s0 = sim.run_round(alerts, vma)
        if s0.migrations == 0:
            pytest.skip("no migration started in round 0")
        before = set(sim.inflight.vms_in_flight)
        s1 = sim.run_round([], {})
        assert s1.rollbacks >= 1
        # the aborted VM left the in-flight set without landing
        assert len(sim.inflight.vms_in_flight & before) < len(before)
        cluster.placement.check_invariants()

    def test_abort_is_noop_on_instant_engine(self, cluster):
        cfg = SheriffConfig(
            fault_schedule=FaultSchedule(
                [FaultSpec(FaultKind.MIGRATION_ABORT, at_round=0)]
            )
        )
        sim = SheriffSimulation(cluster, cfg)
        s = sim.run_round([], {})
        assert s.faults == 1 and s.rollbacks == 0


class TestSwitchFaults:
    def test_partition_degrades_but_completes(self):
        cluster = build_cluster(
            build_bcube(2), hosts_per_rack=2, seed=2,
            delay_sensitive_fraction=0.0,
        )
        cfg = SheriffConfig(
            with_flows=True,
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.SWITCH_FAIL, target=2, at_round=0),
                    FaultSpec(FaultKind.SWITCH_FAIL, target=3, at_round=1),
                ]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        sim.run_round([], {})
        s1 = sim.run_round([], {})  # both switches dead: partitioned
        assert s1.degraded
        cluster.placement.check_invariants()

    def test_fail_and_recover_replan_costs(self, cluster):
        from repro.topology.base import NodeKind

        agg = int(cluster.topology.nodes_of_kind(NodeKind.AGG)[0])
        cfg = SheriffConfig(
            with_flows=True,
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.SWITCH_FAIL, target=agg, at_round=0),
                    FaultSpec(
                        FaultKind.SWITCH_RECOVER, target=agg, at_round=1
                    ),
                ]
            ),
        )
        sim = SheriffSimulation(cluster, cfg)
        s0 = sim.run_round([], {})
        assert s0.faults == 1 and not s0.degraded
        # the rebuilt model routes around the dead aggregation switch
        r = cluster.num_racks
        for a in range(r):
            for b in range(r):
                if a != b:
                    assert agg not in sim.cost_model.table.path(a, b)
        sim.run_round([], {})
        assert sim.flow_table.failed == set()
