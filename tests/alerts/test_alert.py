"""Alert value and message tests (Sec. IV-C)."""

import numpy as np
import pytest

from repro.alerts.alert import Alert, AlertKind, compute_alert
from repro.alerts.threshold import AlertConfig
from repro.errors import ConfigurationError


class TestComputeAlert:
    def test_below_threshold_is_zero(self):
        assert compute_alert(np.array([0.5, 0.6, 0.7, 0.8]), 0.9) == 0.0

    def test_above_threshold_returns_max(self):
        assert compute_alert(np.array([0.5, 0.95, 0.7, 0.8]), 0.9) == 0.95

    def test_strict_inequality(self):
        assert compute_alert(np.array([0.9, 0.0, 0.0, 0.0]), 0.9) == 0.0

    def test_overshoot_clipped(self):
        assert compute_alert(np.array([1.4, 0.0, 0.0, 0.0]), 0.9) == 1.0

    def test_negative_prediction_clipped(self):
        assert compute_alert(np.array([-0.5, 0.2, 0.2, 0.2]), 0.1) == 0.2

    def test_empty_profile_raises(self):
        with pytest.raises(ConfigurationError):
            compute_alert(np.array([]), 0.9)

    def test_bad_threshold_raises(self):
        with pytest.raises(ConfigurationError):
            compute_alert(np.array([0.5]), 0.0)
        with pytest.raises(ConfigurationError):
            compute_alert(np.array([0.5]), 1.5)


class TestAlertRecord:
    def test_server_alert_requires_host(self):
        with pytest.raises(ConfigurationError):
            Alert(kind=AlertKind.SERVER, rack=0, magnitude=0.95)

    def test_switch_alert_requires_switch(self):
        with pytest.raises(ConfigurationError):
            Alert(kind=AlertKind.OUTER_SWITCH, rack=0, magnitude=0.95)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            Alert(kind=AlertKind.LOCAL_TOR, rack=0, magnitude=0.0)

    def test_valid_records(self):
        Alert(kind=AlertKind.SERVER, rack=1, magnitude=0.92, host=3)
        Alert(kind=AlertKind.OUTER_SWITCH, rack=1, magnitude=0.92, switch=9)
        Alert(kind=AlertKind.LOCAL_TOR, rack=1, magnitude=0.92)


class TestAlertConfig:
    def test_defaults_match_paper(self):
        cfg = AlertConfig()
        assert cfg.threshold == 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AlertConfig(threshold=0.0)
        with pytest.raises(ConfigurationError):
            AlertConfig(horizon=0)
