"""VM monitor tests: the pre-alert must fire before the overload lands."""

import numpy as np
import pytest

from repro.alerts.monitor import VMMonitor, default_model_pool, light_model_pool
from repro.alerts.threshold import AlertConfig
from repro.cluster.resources import NUM_RESOURCES, ResourceKind
from repro.errors import ConfigurationError, ForecastError
from repro.traces.workload import WorkloadStream


def drive(monitor, stream, start, end):
    """Feed rounds [start, end) returning the first alerting round (or None)."""
    first = None
    for t in range(start, end):
        a = monitor.alert_value()
        if a > 0 and first is None:
            first = t
        monitor.observe(stream.at(t))
    return first


class TestConstruction:
    def test_rejects_bad_history(self):
        cfg = AlertConfig()
        with pytest.raises(ConfigurationError):
            VMMonitor(np.ones((5, NUM_RESOURCES)), cfg)  # too short
        with pytest.raises(ConfigurationError):
            VMMonitor(np.ones((50, 2)), cfg)  # wrong width


class TestPreAlert:
    def test_quiet_stream_never_alerts(self):
        ws = WorkloadStream.generate(120, base_level=0.3, seed=0, burst_rate=0.0)
        mon = VMMonitor(ws.history(59, 60), AlertConfig(threshold=0.9))
        assert drive(mon, ws, 60, 110) is None

    def test_ramp_triggers_alert_before_peak(self):
        """An injected overload ramp must be predicted before saturation."""
        ramp_start, ramp_len = 80, 12
        ws = WorkloadStream.generate(
            140,
            base_level=0.35,
            wander_sigma=0.01,
            burst_rate=0.0,
            ramps=[(int(ResourceKind.CPU), ramp_start, ramp_len, 0.6)],
            seed=1,
        )
        mon = VMMonitor(ws.history(59, 60), AlertConfig(threshold=0.85))
        first = drive(mon, ws, 60, 130)
        assert first is not None
        # saturation is when the observed CPU itself crosses the threshold
        crossed = np.nonzero(ws.profile[:, 0] > 0.85)[0]
        assert crossed.size
        assert first <= crossed[0] + 1  # alert no later than one round after

    def test_alert_value_uses_max_component(self):
        ws = WorkloadStream.generate(
            100,
            base_level=0.2,
            wander_sigma=0.0,
            burst_rate=0.0,
            ramps=[(int(ResourceKind.TRF), 0, 1, 0.79)],
            seed=2,
        )
        mon = VMMonitor(ws.history(59, 60), AlertConfig(threshold=0.5))
        a = mon.alert_value()
        assert a > 0.5  # TRF component dominates

    def test_predicted_profile_shape(self):
        ws = WorkloadStream.generate(80, seed=3)
        mon = VMMonitor(ws.history(59, 60), AlertConfig())
        p = mon.predicted_profile()
        assert p.shape == (NUM_RESOURCES,)
        assert ((p >= 0) & (p <= 1)).all()


class TestObserveIsAllOrNothing:
    def state(self, mon):
        return [
            (s._step, s._since_fit, [m.y_.tolist() for m in s._models.values()])
            for s in mon._selectors
        ]

    def test_bad_row_touches_no_selector(self):
        ws = WorkloadStream.generate(80, seed=5)
        mon = VMMonitor(ws.history(59, 60), AlertConfig())
        mon.alert_value()
        before = self.state(mon)
        for bad in (np.nan, np.inf):
            with pytest.raises(ForecastError, match="observed value must be finite"):
                mon.observe([0.3, 0.4, bad, 0.2])
            assert self.state(mon) == before
        mon.observe([0.3, 0.4, 0.5, 0.2])
        for (step, since, ys), (step0, since0, ys0), v in zip(
            self.state(mon), before, (0.3, 0.4, 0.5, 0.2)
        ):
            assert (step, since) == (step0 + 1, since0 + 1)
            assert ys == [y0 + [v] for y0 in ys0]


class TestPools:
    def test_default_pool_composition(self):
        pool = default_model_pool()
        assert len(pool) == 4  # two ARIMA + two NARNET, as the paper's example
        names = "".join(pool)
        assert "arima" in names and "narnet" in names

    def test_light_pool_cheap_members(self):
        pool = light_model_pool()
        for factory in pool.values():
            factory()  # constructible

    def test_monitor_with_default_pool(self):
        ws = WorkloadStream.generate(120, seed=4)
        mon = VMMonitor(
            ws.history(99, 100),
            AlertConfig(),
            pool_factory=default_model_pool,
            refit_every=1000,
        )
        assert mon.predicted_profile().shape == (NUM_RESOURCES,)
