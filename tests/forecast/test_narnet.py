"""NARNET training and prediction tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ForecastError
from repro.forecast.metrics import mse
from repro.forecast.narnet import NARNET
from repro.traces.nonlinear import mackey_glass


class TestConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            NARNET(ni=0)
        with pytest.raises(ConfigurationError):
            NARNET(nh=0)
        with pytest.raises(ConfigurationError):
            NARNET(restarts=0)
        with pytest.raises(ConfigurationError):
            NARNET(l2=-1.0)


class TestGradient:
    def test_analytic_gradient_matches_finite_difference(self):
        """The backprop inside fit() must match numeric differentiation."""
        net = NARNET(ni=3, nh=4, l2=1e-3, restarts=1, seed=0, maxiter=1)
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        # reach into the fit closure by replicating it here
        from repro.forecast.lag import lag_matrix

        z = (y - y.mean()) / y.std()
        X, t = lag_matrix(z, 3)
        m = X.shape[0]

        def loss(x):
            w1, b1, w2, b2 = net._unpack(x)
            h = np.tanh(X @ w1.T + b1)
            r = h @ w2 + b2 - t
            out = 0.5 * float(r @ r) / m
            out += 0.5 * net.l2 * (float((w1 * w1).sum()) + float(w2 @ w2))
            return out

        def grad_analytic(x):
            w1, b1, w2, b2 = net._unpack(x)
            h = np.tanh(X @ w1.T + b1)
            r = h @ w2 + b2 - t
            dy = r / m
            g_b2 = float(dy.sum())
            g_w2 = h.T @ dy + net.l2 * w2
            dh = np.outer(dy, w2) * (1.0 - h * h)
            g_w1 = dh.T @ X + net.l2 * w1
            g_b1 = dh.sum(axis=0)
            return np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])

        x0 = rng.normal(0, 0.5, net._n_params())
        g = grad_analytic(x0)
        eps = 1e-6
        for i in range(0, len(x0), 5):
            xp = x0.copy()
            xp[i] += eps
            xm = x0.copy()
            xm[i] -= eps
            num = (loss(xp) - loss(xm)) / (2 * eps)
            assert g[i] == pytest.approx(num, abs=1e-5)


class TestFit:
    def test_learns_deterministic_nonlinear_map(self):
        # y_t = sin(y_{t-1}) recursion is exactly learnable
        y = np.empty(300)
        y[0] = 0.9
        for t in range(1, 300):
            y[t] = np.sin(2.5 * y[t - 1])
        net = NARNET(ni=2, nh=12, restarts=2, seed=1, maxiter=400).fit(y[:250])
        pred = []
        for v in y[250:]:  # one step ahead from the true lags, held out
            pred.append(net.predict_one())
            net.append(float(v))
        assert mse(y[250:], np.asarray(pred)) < 1e-3

    def test_beats_linear_on_mackey_glass(self):
        from repro.forecast.arima import ARIMA

        x = mackey_glass(900, seed=2)
        train, test_start = x[:700], 700
        net = NARNET(ni=8, nh=16, restarts=2, seed=3).fit(train)
        ar = ARIMA(2, 0, 1).fit(train)
        # walk-forward one-step on the test span
        errs_net, errs_ar = [], []
        for t in range(test_start, 800):
            errs_net.append(x[t] - net.predict_one())
            errs_ar.append(x[t] - ar.predict_one())
            net.append(x[t])
            ar.append(x[t])
        assert np.mean(np.square(errs_net)) < np.mean(np.square(errs_ar))

    def test_constant_series(self):
        net = NARNET(ni=4, nh=8, seed=4).fit(np.full(64, 2.5))
        np.testing.assert_allclose(net.forecast(3), 2.5, atol=1e-9)

    def test_deterministic_given_seed(self):
        x = mackey_glass(300, seed=5)
        a = NARNET(ni=6, nh=8, restarts=2, seed=6).fit(x).forecast(5)
        b = NARNET(ni=6, nh=8, restarts=2, seed=6).fit(x).forecast(5)
        np.testing.assert_array_equal(a, b)

    def test_too_short_raises(self):
        with pytest.raises(ForecastError):
            NARNET(ni=8, nh=20).fit(np.ones(10))


class TestForecast:
    def test_closed_loop_horizon(self):
        x = mackey_glass(400, seed=7)
        net = NARNET(ni=6, nh=10, restarts=1, seed=8).fit(x)
        f = net.forecast(20)
        assert f.shape == (20,)
        assert np.isfinite(f).all()
        # closed-loop forecasts should stay within a sane envelope
        assert f.min() > x.min() - 3 * x.std()
        assert f.max() < x.max() + 3 * x.std()

    def test_append_without_refit(self):
        x = mackey_glass(300, seed=9)
        net = NARNET(ni=4, nh=8, restarts=1, seed=10).fit(x[:250])
        w1_before = net.w1_.copy()
        for v in x[250:260]:
            net.append(float(v))
        np.testing.assert_array_equal(net.w1_, w1_before)  # no refit
        assert net.y_.shape[0] == 260

    def test_requires_fit(self):
        with pytest.raises(ForecastError):
            NARNET().forecast(1)
