"""Property-based tests on the simulation engine.

Whatever alert stream the engine is fed — random kinds, random
magnitudes, random rounds — the placement invariants must hold after
every round, accepted migrations must respect capacity, and the reported
counters must be internally consistent.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.sim import SheriffSimulation
from repro.topology import build_fattree

common = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def fresh_cluster(seed):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        fill_fraction=0.5,
        skew=0.6,
        seed=seed,
        delay_sensitive_fraction=0.1,
    )


@st.composite
def alert_streams(draw):
    """A few rounds of random alerts for a fixed small cluster."""
    seed = draw(st.integers(0, 10**6))
    cluster = fresh_cluster(seed)
    n_rounds = draw(st.integers(1, 4))
    rounds = []
    for _ in range(n_rounds):
        n_alerts = draw(st.integers(0, 6))
        alerts = []
        vm_alerts = {}
        for _ in range(n_alerts):
            kind = draw(st.sampled_from(list(AlertKind)))
            rack = draw(st.integers(0, cluster.num_racks - 1))
            mag = draw(st.floats(0.01, 1.0, allow_nan=False))
            if kind is AlertKind.SERVER:
                hosts = cluster.placement.hosts_in_rack(rack)
                host = int(hosts[draw(st.integers(0, len(hosts) - 1))])
                alerts.append(
                    Alert(kind=kind, rack=rack, magnitude=mag, host=host)
                )
                for vm in cluster.placement.vms_on_host(host):
                    vm_alerts[int(vm)] = mag
            elif kind is AlertKind.LOCAL_TOR:
                alerts.append(Alert(kind=kind, rack=rack, magnitude=mag))
                for vm in cluster.placement.vms_in_rack(rack):
                    vm_alerts[int(vm)] = mag
            else:
                sw = int(
                    cluster.topology.switches()[
                        draw(st.integers(0, len(cluster.topology.switches()) - 1))
                    ]
                )
                alerts.append(Alert(kind=kind, rack=rack, magnitude=mag, switch=sw))
        rounds.append((alerts, vm_alerts))
    return cluster, rounds


@common
@given(alert_streams())
def test_engine_invariants_under_random_alerts(stream):
    cluster, rounds = stream
    sim = SheriffSimulation(cluster)
    for alerts, vm_alerts in rounds:
        before = cluster.placement.vm_host.copy()
        summary = sim.run_round(alerts, vm_alerts)
        cluster.placement.check_invariants()
        moved = int((before != cluster.placement.vm_host).sum())
        assert moved == summary.migrations
        assert summary.migrations <= summary.requests
        assert summary.requests == summary.migrations + summary.rejects
        assert summary.total_cost >= 100.0 * summary.migrations - 1e-6
        # delay-sensitive VMs never move
        sensitive = np.nonzero(cluster.placement.vm_delay_sensitive)[0]
        assert (before[sensitive] == cluster.placement.vm_host[sensitive]).all()


@common
@given(alert_streams())
def test_engine_is_deterministic(stream):
    cluster_a, rounds = stream
    # replay the identical stream on an identical cluster: a twin built
    # from the same columns
    from repro.cluster import Cluster, Placement

    pl = cluster_a.placement
    cluster_b = Cluster(
        topology=cluster_a.topology,
        placement=Placement(
            vm_capacity=pl.vm_capacity,
            vm_value=pl.vm_value,
            vm_delay_sensitive=pl.vm_delay_sensitive,
            host_capacity=pl.host_capacity,
            host_rack=pl.host_rack,
            vm_host=pl.vm_host,
        ),
        dependencies=cluster_a.dependencies,
    )
    sim_a = SheriffSimulation(cluster_a)
    sim_b = SheriffSimulation(cluster_b)
    for alerts, vm_alerts in rounds:
        sa = sim_a.run_round(alerts, vm_alerts)
        sb = sim_b.run_round(alerts, vm_alerts)
        assert sa.migrations == sb.migrations
        assert sa.total_cost == pytest.approx(sb.total_cost)
    np.testing.assert_array_equal(
        cluster_a.placement.vm_host, cluster_b.placement.vm_host
    )
