"""ACF / Ljung-Box tests."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecast.acf import acf, ljung_box
from repro.traces.noise import ar1_noise, white_noise


class TestACF:
    def test_lag_zero_is_one(self):
        x = white_noise(500, seed=0)
        assert acf(x, 5)[0] == pytest.approx(1.0)

    def test_white_noise_decorrelated(self):
        x = white_noise(5000, seed=1)
        r = acf(x, 10)
        assert np.abs(r[1:]).max() < 0.05

    def test_ar1_geometric_decay(self):
        phi = 0.8
        x = ar1_noise(50000, phi=phi, seed=2)
        r = acf(x, 5)
        for k in range(1, 6):
            assert r[k] == pytest.approx(phi**k, abs=0.03)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        r = acf(x, 4)
        xc = x - x.mean()
        for k in range(5):
            direct = np.dot(xc[: len(x) - k], xc[k:]) / np.dot(xc, xc)
            assert r[k] == pytest.approx(direct, abs=1e-10)

    def test_constant_series_raises(self):
        with pytest.raises(ForecastError):
            acf(np.ones(100), 5)

    def test_too_many_lags_raises(self):
        with pytest.raises(ForecastError):
            acf(np.arange(10.0), 10)


class TestLjungBox:
    def test_white_noise_not_rejected(self):
        x = white_noise(2000, seed=7)
        q, p = ljung_box(x, 10)
        assert p > 0.01

    def test_correlated_rejected(self):
        x = ar1_noise(2000, phi=0.6, seed=8)
        q, p = ljung_box(x, 10)
        assert p < 1e-6

    def test_dof_adjustment(self):
        x = white_noise(500, seed=9)
        q1, p1 = ljung_box(x, 10, fitted_params=0)
        q2, p2 = ljung_box(x, 10, fitted_params=3)
        assert q1 == q2
        assert p1 != p2

    def test_rejects_lags_below_params(self):
        with pytest.raises(ForecastError):
            ljung_box(white_noise(100, seed=0), 3, fitted_params=3)
