"""Alert scenario generation tests."""

import numpy as np
import pytest

from repro.alerts.alert import AlertKind
from repro.alerts.monitor import VMMonitor
from repro.alerts.threshold import AlertConfig
from repro.cluster import build_cluster
from repro.cluster.resources import ResourceKind
from repro.errors import ConfigurationError
from repro.sim.scenario import (
    forecast_alert_round,
    inject_fraction_alerts,
    overloaded_host_alerts,
)
from repro.topology import build_fattree
from repro.traces.workload import WorkloadStream


@pytest.fixture
def cluster():
    return build_cluster(
        build_fattree(4), hosts_per_rack=3, skew=0.8, fill_fraction=0.5, seed=50,
        delay_sensitive_fraction=0.1,
    )


class TestInjectFraction:
    def test_count_close_to_fraction(self, cluster):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, seed=0)
        target = round(0.05 * cluster.num_vms)
        assert abs(len(alerts) - target) <= 1
        assert len(vma) == len(alerts)

    def test_all_server_alerts_with_coordinates(self, cluster):
        alerts, vma = inject_fraction_alerts(cluster, 0.05, seed=1)
        pl = cluster.placement
        for a in alerts:
            assert a.kind is AlertKind.SERVER
            assert a.vm in vma
            assert pl.host_of(a.vm) == a.host
            assert int(pl.host_rack[a.host]) == a.rack

    def test_prefers_loaded_hosts(self, cluster):
        alerts, _ = inject_fraction_alerts(cluster, 0.05, seed=2)
        pl = cluster.placement
        load = pl.host_load_fraction()
        alerted = np.asarray([load[a.host] for a in alerts])
        assert alerted.mean() > load.mean()

    def test_skips_delay_sensitive(self, cluster):
        alerts, _ = inject_fraction_alerts(cluster, 0.3, seed=3)
        pl = cluster.placement
        for a in alerts:
            assert not pl.vm_delay_sensitive[a.vm]

    def test_deterministic(self, cluster):
        a1, _ = inject_fraction_alerts(cluster, 0.05, seed=9)
        a2, _ = inject_fraction_alerts(cluster, 0.05, seed=9)
        assert [x.vm for x in a1] == [x.vm for x in a2]

    def test_rejects_bad_fraction(self, cluster):
        with pytest.raises(ConfigurationError):
            inject_fraction_alerts(cluster, 0.0)


class TestOverloadedHosts:
    def test_threshold_filtering(self, cluster):
        pl = cluster.placement
        load = pl.host_load_fraction()
        thr = float(np.quantile(load, 0.8))
        thr = min(max(thr, 0.05), 0.99)
        alerts, vma = overloaded_host_alerts(cluster, thr)
        hot = set(np.nonzero(load > thr)[0].tolist())
        assert {a.host for a in alerts} == hot

    def test_no_overload_no_alerts(self, cluster):
        alerts, vma = overloaded_host_alerts(cluster, 1.0)
        assert alerts == [] and vma == {}


class TestForecastRound:
    def test_alerts_come_from_ramping_vms(self, cluster):
        pl = cluster.placement
        cfg = AlertConfig(threshold=0.8)
        # two monitored VMs: one quiet, one ramping into overload
        quiet = WorkloadStream.generate(
            120, base_level=0.3, burst_rate=0.0, wander_sigma=0.005, seed=1
        )
        ramp = WorkloadStream.generate(
            120,
            base_level=0.3,
            burst_rate=0.0,
            wander_sigma=0.005,
            ramps=[(int(ResourceKind.CPU), 60, 10, 0.65)],
            seed=2,
        )
        monitors = {
            0: VMMonitor(quiet.history(59, 60), cfg),
            1: VMMonitor(ramp.history(59, 60), cfg),
        }
        fired_vms = set()
        for t in range(60, 90):
            alerts, vma = forecast_alert_round(cluster, monitors, time=t)
            fired_vms |= set(vma)
            monitors[0].observe(quiet.at(t))
            monitors[1].observe(ramp.at(t))
        assert 1 in fired_vms
        assert 0 not in fired_vms

    def test_batched_fleet_equals_scalar_across_slides_and_refits(self, monkeypatch):
        """The banked fleet through the engine, long enough to matter.

        ``refit_every=7`` over 30 rounds is four refits a monitor, and a
        30-sample ``max_history`` and a 5-sample Eq. (14) window both
        slide: every alert, ``vm_alerts``, ``RoundSummary`` and the final
        placement equal those of the scalar oracle, one
        ``VMMonitor.alert_value`` per monitor.
        """
        from repro.sim import SheriffSimulation

        from tests.property.test_parallel_properties import summary_fields

        monkeypatch.setattr("repro.alerts.monitor.PERIOD", 5)
        monkeypatch.setattr("repro.alerts.monitor.REFIT_EVERY", 7)
        monkeypatch.setattr("repro.alerts.monitor.MAX_HISTORY", 30)

        def run(batched):
            cluster = build_cluster(
                build_fattree(4), hosts_per_rack=4, fill_fraction=0.5, seed=2015,
                delay_sensitive_fraction=0.1,
            )
            pl = cluster.placement
            rng = np.random.default_rng(2015)
            config = AlertConfig(threshold=0.75)
            monitors, future = {}, {}
            for i, v in enumerate(v for v in range(cluster.num_vms)
                                  if not pl.vm_delay_sensitive[v]):
                series = np.clip(
                    rng.uniform(0.25, 0.92)
                    + 0.04 * rng.standard_normal((28 + i % 7 + 30, 4)),
                    0.0,
                    1.0,
                )
                monitors[v] = VMMonitor(series[:28], config)
                for row in series[28 : 28 + i % 7]:  # refits spread over rounds
                    monitors[v].observe(row)
                future[v] = series[28 + i % 7 :]
            sim = SheriffSimulation(cluster)
            out = []
            for r in range(30):
                alerts, vm_alerts = forecast_alert_round(cluster, monitors, time=r)
                summary = sim.run_round(alerts, vm_alerts)
                out.append((alerts, vm_alerts, summary_fields(summary)))
                for v, mon in monitors.items():
                    mon.observe(future[v][r])
            sels = [s for m in monitors.values() for s in m._selectors]
            if batched:  # the whole fleet in one bank
                assert len(sels[0]._fleet_read.banks) == 1
            else:  # every monitor observed 30 rounds: four refits
                assert min(s._step for s in sels) >= 30
            return out, pl.vm_host.tolist()

        with monkeypatch.context() as m:
            m.setattr(
                "repro.sim.scenario.fleet_alert_values",
                lambda mons: [mon.alert_value() for mon in mons],
            )
            scalar = run(False)
        batched = run(True)
        assert batched == scalar
        rounds = scalar[0]
        assert sum(len(alerts) for alerts, _, _ in rounds) > 0
        assert sum(s["migrations"] for _, _, s in rounds) > 0

    def test_alert_addressing(self, cluster):
        pl = cluster.placement
        cfg = AlertConfig(threshold=0.1)  # everything alerts
        ws = WorkloadStream.generate(80, base_level=0.5, seed=3)
        monitors = {4: VMMonitor(ws.history(59, 60), cfg)}
        alerts, vma = forecast_alert_round(cluster, monitors)
        assert len(alerts) == 1
        assert alerts[0].host == pl.host_of(4)
