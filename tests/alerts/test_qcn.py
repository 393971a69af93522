"""QCN queue model and ToR uplink monitor tests."""

import numpy as np
import pytest

from repro.alerts import qcn
from repro.alerts.qcn import SwitchQueue, ToRUplinkMonitor
from repro.errors import ConfigurationError


class TestSwitchQueue:
    def test_drains_when_underloaded(self):
        q = SwitchQueue(service_rate=10.0, buffer_size=100.0)
        q.step(50.0)
        occ = q.occupancy
        q.step(0.0)
        assert q.occupancy < occ

    def test_builds_when_overloaded(self):
        q = SwitchQueue(service_rate=10.0, buffer_size=100.0)
        for _ in range(5):
            q.step(20.0)
        assert q.occupancy == pytest.approx(50.0)

    def test_saturates_at_buffer(self):
        q = SwitchQueue(service_rate=1.0, buffer_size=10.0)
        for _ in range(100):
            q.step(5.0)
        assert q.occupancy == 10.0
        assert q.normalized == 1.0

    def test_never_negative(self):
        q = SwitchQueue(service_rate=10.0, buffer_size=100.0)
        q.step(0.0)
        assert q.occupancy == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SwitchQueue(service_rate=0, buffer_size=10)
        with pytest.raises(ConfigurationError):
            SwitchQueue(service_rate=1, buffer_size=0)
        q = SwitchQueue(service_rate=1, buffer_size=10)
        with pytest.raises(ConfigurationError):
            q.step(-1.0)


class TestToRUplinkMonitor:
    def test_warms_up_with_last_value(self):
        q = SwitchQueue(service_rate=10.0, buffer_size=100.0)
        mon = ToRUplinkMonitor(q, threshold=0.8)
        mon.record(5.0)
        assert mon.predicted_occupancy() == q.normalized

    def test_predicts_rising_queue(self):
        q = SwitchQueue(service_rate=5.0, buffer_size=100.0)
        mon = ToRUplinkMonitor(q, threshold=0.5)
        # steady overload: queue rises ~3 units/round
        for _ in range(30):
            mon.record(8.0)
        pred = mon.predicted_occupancy()
        assert pred >= q.normalized - 0.02  # anticipates continued growth

    def test_alert_fires_above_threshold(self, monkeypatch):
        monkeypatch.setattr(qcn, "MIN_HISTORY", 10)
        q = SwitchQueue(service_rate=1.0, buffer_size=50.0)
        mon = ToRUplinkMonitor(q, threshold=0.6)
        fired = False
        for _ in range(60):
            mon.record(3.0)
            if mon.alert_value() > 0:
                fired = True
                break
        assert fired

    def test_quiet_uplink_never_alerts(self, monkeypatch):
        monkeypatch.setattr(qcn, "MIN_HISTORY", 10)
        q = SwitchQueue(service_rate=10.0, buffer_size=100.0)
        mon = ToRUplinkMonitor(q, threshold=0.8)
        for _ in range(40):
            mon.record(2.0)
            assert mon.alert_value() == 0.0

    def test_validation(self):
        q = SwitchQueue(service_rate=1.0, buffer_size=10.0)
        with pytest.raises(ConfigurationError):
            ToRUplinkMonitor(q, threshold=0.0)
