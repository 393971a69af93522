"""Simulation engine tests."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.sim import SheriffConfig, SheriffSimulation, inject_fraction_alerts
from repro.topology import build_bcube, build_fattree


@pytest.fixture
def sim_cluster():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.5,
        skew=0.7,
        seed=99,
        delay_sensitive_fraction=0.0,
    )
    return cluster


class TestRunRound:
    def test_round_summary_fields(self, sim_cluster):
        sim = SheriffSimulation(sim_cluster)
        alerts, vma = inject_fraction_alerts(sim_cluster, 0.05, seed=1)
        s = sim.run_round(alerts, vma)
        assert s.alerts == len(alerts)
        assert s.migrations <= s.requests
        assert s.total_cost >= 0
        assert s.search_space > 0
        sim_cluster.placement.check_invariants()

    def test_migrations_committed(self, sim_cluster):
        sim = SheriffSimulation(sim_cluster)
        before = sim_cluster.placement.vm_host.copy()
        alerts, vma = inject_fraction_alerts(sim_cluster, 0.1, seed=2)
        s = sim.run_round(alerts, vma)
        moved = int((before != sim_cluster.placement.vm_host).sum())
        assert moved == s.migrations

    def test_balancing_improves_over_rounds(self, sim_cluster):
        sim = SheriffSimulation(sim_cluster)
        for r in range(10):
            alerts, vma = inject_fraction_alerts(sim_cluster, 0.05, seed=10 + r)
            sim.run_round(alerts, vma)
        series = sim.workload_std_series()
        assert series[-1] < series[0]  # Fig. 9 shape
        assert series.shape == (11,)

    def test_bcube_works_too(self):
        cluster = build_cluster(
            build_bcube(4), hosts_per_rack=3, skew=0.7, seed=3,
            delay_sensitive_fraction=0.0,
        )
        sim = SheriffSimulation(cluster)
        for r in range(5):
            alerts, vma = inject_fraction_alerts(cluster, 0.05, seed=r)
            sim.run_round(alerts, vma)
        assert sim.workload_std_series()[-1] <= sim.workload_std_series()[0]

    def test_empty_round(self, sim_cluster):
        sim = SheriffSimulation(sim_cluster)
        s = sim.run_round([], {})
        assert s.migrations == 0
        assert s.workload_std_before == s.workload_std_after

    def test_history_accumulates(self, sim_cluster):
        sim = SheriffSimulation(sim_cluster)
        for r in range(3):
            alerts, vma = inject_fraction_alerts(sim_cluster, 0.05, seed=r)
            sim.run_round(alerts, vma)
        assert [s.round_index for s in sim.history] == [0, 1, 2]

    def test_with_flows_populates_table(self):
        cluster = build_cluster(
            build_fattree(4), hosts_per_rack=2, seed=4, dependency_degree=2.0
        )
        sim = SheriffSimulation(cluster, SheriffConfig(with_flows=True))
        assert sim.flow_table is not None
        # inter-rack dependency pairs become flows
        inter = {
            (a, b)
            for a, b in cluster.dependencies.rack_edges(cluster.placement)
        }
        if inter:
            assert len(sim.flow_table.flows) > 0
