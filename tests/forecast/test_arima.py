"""ARIMA estimation and forecasting tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ForecastError
from repro.forecast.arima import ARIMA, _css_residuals, _max_inverse_root
from repro.forecast.base import _Series
from repro.forecast.lag import difference, difference_heads
from repro.traces.noise import white_noise


def simulate_arma(n, phi, theta, c=0.0, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.normal(0, sigma, n)
    w = np.zeros(n)
    p, q = len(phi), len(theta)
    for t in range(max(p, q), n):
        w[t] = c + e[t]
        for i in range(p):
            w[t] += phi[i] * w[t - 1 - i]
        for j in range(q):
            w[t] += theta[j] * e[t - 1 - j]
    return w


class TestInverseRoots:
    def test_ar1(self):
        assert _max_inverse_root(np.array([0.6]), "ar") == pytest.approx(0.6)

    def test_explosive_ar1(self):
        assert _max_inverse_root(np.array([1.5]), "ar") == pytest.approx(1.5)

    def test_ma1(self):
        assert _max_inverse_root(np.array([0.4]), "ma") == pytest.approx(0.4)

    def test_empty(self):
        assert _max_inverse_root(np.empty(0), "ar") == 0.0


class TestResiduals:
    def test_white_noise_recovered_from_true_params(self):
        phi, theta = [0.6], [0.3]
        w = simulate_arma(3000, phi, theta, c=0.5, seed=1)
        e = _css_residuals(w, 0.5, np.array(phi), np.array(theta))
        # residuals should behave like the true innovations: unit variance,
        # no autocorrelation
        assert abs(e.var() - 1.0) < 0.1
        r1 = np.corrcoef(e[:-1], e[1:])[0, 1]
        assert abs(r1) < 0.05

    def test_pure_ar_matches_direct(self):
        w = simulate_arma(500, [0.5], [], seed=2)
        e = _css_residuals(w, 0.0, np.array([0.5]), np.empty(0))
        direct = w[1:] - 0.5 * w[:-1]
        np.testing.assert_allclose(e, direct, atol=1e-12)


class TestFit:
    def test_recovers_arma11(self):
        w = simulate_arma(4000, [0.6], [0.3], c=0.2, seed=3)
        y = np.cumsum(w)
        m = ARIMA(1, 1, 1).fit(y)
        assert m.phi_[0] == pytest.approx(0.6, abs=0.08)
        assert m.theta_[0] == pytest.approx(0.3, abs=0.08)
        assert m.sigma2_ == pytest.approx(1.0, abs=0.1)

    def test_recovers_ar2(self):
        w = simulate_arma(4000, [0.5, 0.2], [], seed=4)
        m = ARIMA(2, 0, 0).fit(w)
        assert m.phi_[0] == pytest.approx(0.5, abs=0.08)
        assert m.phi_[1] == pytest.approx(0.2, abs=0.08)

    def test_fitted_params_stationary_invertible(self):
        w = simulate_arma(800, [0.9], [0.8], seed=5)
        m = ARIMA(1, 0, 1).fit(w)
        assert _max_inverse_root(m.phi_, "ar") < 1.0
        assert _max_inverse_root(m.theta_, "ma") < 1.0

    def test_constant_series(self):
        m = ARIMA(1, 0, 1).fit(np.full(50, 3.0))
        np.testing.assert_allclose(m.forecast(3), 3.0)

    def test_linear_trend_with_d1(self):
        y = 2.0 * np.arange(100) + 5
        m = ARIMA(0, 1, 0).fit(y)
        np.testing.assert_allclose(m.forecast(3), [205, 207, 209], atol=1e-6)

    def test_too_short_series_raises(self):
        with pytest.raises(ForecastError):
            ARIMA(2, 1, 2).fit(np.ones(5))

    def test_invalid_orders_raise(self):
        with pytest.raises(ConfigurationError):
            ARIMA(-1, 0, 0)


class TestForecast:
    def test_requires_fit(self):
        with pytest.raises(ForecastError):
            ARIMA(1, 0, 0).forecast(1)

    def test_horizon_validation(self):
        m = ARIMA(1, 0, 0).fit(white_noise(100, seed=0))
        with pytest.raises(ForecastError):
            m.forecast(0)

    def test_ar1_forecast_decays_to_mean(self):
        w = simulate_arma(3000, [0.7], [], c=0.0, seed=6)
        m = ARIMA(1, 0, 0, include_constant=False).fit(w)
        f = m.forecast(50)
        assert abs(f[-1]) < abs(f[0]) or abs(f[0]) < 0.05
        assert abs(f[-1]) < 0.1 * max(abs(w).max(), 1.0)

    def test_kstep_consistency(self):
        """k-step forecast must equal iterating 1-step with own predictions."""
        w = simulate_arma(1000, [0.6], [0.2], seed=7)
        y = np.cumsum(w)
        m = ARIMA(1, 1, 1).fit(y)
        f5 = m.forecast(5)
        # manual recursion on the differenced scale
        f1 = m.forecast(1)
        assert f5[0] == pytest.approx(f1[0], abs=1e-9)
        assert np.isfinite(f5).all()

    def test_append_shifts_forecast(self):
        w = simulate_arma(500, [0.5], [], seed=9)
        m = ARIMA(1, 0, 0).fit(w)
        f_before = m.predict_one()
        m.append(w[-1] + 5.0)  # a large surprise
        f_after = m.predict_one()
        assert f_after != pytest.approx(f_before)

    def test_append_rejects_nan(self):
        m = ARIMA(1, 0, 0).fit(white_noise(100, seed=1))
        with pytest.raises(ForecastError):
            m.append(float("nan"))


class TestInformationCriteria:
    def test_aic_prefers_true_order(self):
        w = simulate_arma(3000, [0.6], [], seed=10)
        a1 = ARIMA(1, 0, 0).fit(w).aic()
        a3 = ARIMA(3, 0, 3).fit(w).aic()
        assert a1 < a3 + 20  # parsimony should win or come close

    def test_loglik_finite(self):
        m = ARIMA(1, 0, 1).fit(white_noise(200, seed=11))
        assert np.isfinite(m.loglikelihood())
        assert np.isfinite(m.aic())


class TestIncrementalState:
    """The O(1) append state must match refiltering the full series."""

    @pytest.mark.parametrize(
        "order",
        # q >= 1 (the innovation joins the tail) and q = 0 (none is formed)
        [(1, 0, 0), (1, 1, 1), (2, 1, 2), (0, 2, 1), (1, 1, 0), (2, 2, 0)],
    )
    def test_append_equals_refilter(self, order):
        p, d, q = order
        rng = np.random.default_rng(7)
        w = simulate_arma(600, [0.5, 0.2][:p], [0.3, 0.1][:q], seed=11)
        y = w
        for _ in range(d):
            y = np.cumsum(y)
        m = ARIMA(p, d, q).fit(y[:400])
        for v in y[400:550]:
            m.append(float(v))
        f_inc = m.forecast(4)
        # rebuild the state from scratch with identical parameters
        full = y[:550].copy()
        w_full = difference(full, d)
        e_full = _css_residuals(w_full, m.const_, m.phi_, m.theta_)
        clone = ARIMA(p, d, q)
        clone._install(
            _Series(full), m.const_, m.phi_, m.theta_, m.sigma2_,
            w_full[len(w_full) - p :].tolist(),
            e_full[len(e_full) - q :].tolist(),
            difference_heads(full, d),
        )
        f_full = clone.forecast(4)
        np.testing.assert_allclose(f_inc, f_full, atol=1e-9)

    def test_many_appends_stay_stable(self):
        w = simulate_arma(2000, [0.6], [0.3], seed=12)
        y = np.cumsum(w)
        m = ARIMA(1, 1, 1).fit(y[:300])
        for v in y[300:]:
            m.append(float(v))
        f = m.forecast(3)
        assert np.isfinite(f).all()
        # forecast stays anchored near the last level
        assert abs(f[0] - y[-1]) < 10 * np.abs(np.diff(y)).max()

    def test_append_speed_independent_of_history(self):
        import time

        w = simulate_arma(6000, [0.5], [0.2], seed=13)
        y = np.cumsum(w)
        m = ARIMA(1, 1, 1).fit(y[:500])
        t0 = time.perf_counter()
        for v in y[500:1000]:
            m.predict_one()
            m.append(float(v))
        short_hist = time.perf_counter() - t0
        t0 = time.perf_counter()
        for v in y[5500:6000]:
            m.predict_one()
            m.append(float(v))
        long_hist = time.perf_counter() - t0
        # O(1) per tick: 10x more history must not mean ~10x slower ticks
        assert long_hist < 5 * short_hist + 0.05
