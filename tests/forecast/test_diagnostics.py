"""Residual diagnostic tests."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecast import ARIMA, diagnose, jarque_bera
from repro.forecast.diagnostics import ResidualDiagnostics
from repro.traces.noise import ar1_noise, white_noise


class TestJarqueBera:
    def test_gaussian_not_rejected(self):
        x = white_noise(5000, seed=0)
        _, p = jarque_bera(x)
        assert p > 0.01

    def test_heavy_tails_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.standard_t(df=2, size=5000)
        _, p = jarque_bera(x)
        assert p < 1e-6

    def test_skew_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=5000)
        _, p = jarque_bera(x)
        assert p < 1e-6

    def test_constant_degenerate(self):
        jb, p = jarque_bera(np.ones(50))
        assert jb == 0.0 and p == 1.0

    def test_too_short(self):
        with pytest.raises(ForecastError):
            jarque_bera(np.ones(5))


class TestDiagnose:
    def test_white_noise_passes_everything(self):
        e = white_noise(2000, seed=3)
        d = diagnose(e)
        assert d.white and d.unbiased and d.normal and d.arch_p > d.alpha
        assert d.adequate

    def test_correlated_residuals_fail_whiteness(self):
        e = ar1_noise(2000, phi=0.5, seed=4)
        d = diagnose(e)
        assert not d.white
        assert not d.adequate

    def test_biased_residuals_detected(self):
        e = white_noise(2000, seed=5) + 0.5
        d = diagnose(e)
        assert not d.unbiased
        assert not d.adequate

    def test_arch_structure_detected(self):
        rng = np.random.default_rng(6)
        # GARCH-ish: volatility follows an AR(1) regime
        n = 4000
        sigma = np.exp(ar1_noise(n, phi=0.97, sigma=0.3, seed=7))
        e = rng.normal(size=n) * sigma
        d = diagnose(e)
        assert d.arch_p <= d.alpha
        # heteroskedasticity alone does not veto adequacy
        if d.white and d.unbiased:
            assert d.adequate

    def test_good_arima_fit_is_adequate(self):
        rng = np.random.default_rng(8)
        n = 2000
        w = np.zeros(n)
        eps = rng.normal(size=n)
        for t in range(1, n):
            w[t] = 0.6 * w[t - 1] + eps[t]
        m = ARIMA(1, 0, 0).fit(w)
        d = diagnose(m.residuals(), fitted_params=m.p + m.q)
        assert d.adequate

    def test_underfit_arima_is_inadequate(self):
        rng = np.random.default_rng(9)
        n = 2000
        w = np.zeros(n)
        eps = rng.normal(size=n)
        for t in range(2, n):
            w[t] = 0.5 * w[t - 1] + 0.3 * w[t - 2] + eps[t]
        # fit white-noise-only model: residuals keep the AR structure
        m = ARIMA(0, 0, 0).fit(w)
        d = diagnose(m.residuals(), fitted_params=0)
        assert not d.adequate

    def test_validation(self):
        with pytest.raises(ForecastError):
            diagnose(np.ones(10))
        with pytest.raises(ForecastError):
            diagnose(white_noise(100, seed=0), alpha=0.0)
