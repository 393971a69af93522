"""Backtesting API tests."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecast import ARIMA, NaiveLast, SeasonalARIMA
from repro.forecast.evaluation import backtest, compare_models, horizon_curve
from repro.traces import weekly_traffic_trace


class TestBacktest:
    def test_perfect_trend(self):
        y = np.arange(120, dtype=float)
        res = backtest(lambda: ARIMA(0, 1, 0), y, 60, horizon=1)
        assert res.mse == pytest.approx(0.0, abs=1e-10)
        assert res.predictions.shape == res.actuals.shape

    def test_naive_alignment(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=80)
        res = backtest(lambda: NaiveLast(), y, 40, horizon=1)
        # one-step naive prediction at origin t is y[t-1]
        np.testing.assert_allclose(res.predictions, y[39:-1])
        np.testing.assert_allclose(res.actuals, y[40:])

    def test_horizon_alignment(self):
        y = np.arange(100, dtype=float)
        res = backtest(lambda: ARIMA(0, 1, 0), y, 50, horizon=5)
        np.testing.assert_allclose(res.actuals, y[54:])
        assert res.mse == pytest.approx(0.0, abs=1e-9)

    def test_stride_thins_origins(self):
        y = np.arange(100, dtype=float)
        res1 = backtest(lambda: NaiveLast(), y, 50, stride=1)
        res5 = backtest(lambda: NaiveLast(), y, 50, stride=5)
        assert len(res5.predictions) == (len(res1.predictions) + 4) // 5

    def test_bias_sign(self):
        y = np.arange(100, dtype=float)
        res = backtest(lambda: NaiveLast(), y, 50, horizon=1)
        assert res.bias == pytest.approx(1.0)  # naive lags a rising trend

    def test_refit_and_history_window(self):
        y = weekly_traffic_trace(seed=1)[:500]
        res = backtest(lambda: ARIMA(1, 1, 1), y, 400, refit_every=20)
        assert np.isfinite(res.mse)

    def test_validation(self):
        y = np.arange(20.0)
        with pytest.raises(ForecastError):
            backtest(lambda: NaiveLast(), y, 25)
        with pytest.raises(ForecastError):
            backtest(lambda: NaiveLast(), y, 10, horizon=0)
        with pytest.raises(ForecastError):
            backtest(lambda: NaiveLast(), y, 19, horizon=5)


class TestHorizonCurve:
    def test_degradation_measured(self):
        y = weekly_traffic_trace(seed=2)[:700]
        curve = horizon_curve(
            lambda: ARIMA(1, 1, 1), y, 550, horizons=[1, 24], stride=12
        )
        assert set(curve) == {1, 24}
        assert curve[24].mse > curve[1].mse  # recursive degradation

    def test_empty_horizons_rejected(self):
        with pytest.raises(ForecastError):
            horizon_curve(lambda: NaiveLast(), np.arange(50.0), 25, horizons=[])


class TestCompareModels:
    def test_ranked_output(self):
        y = weekly_traffic_trace(seed=3)[:600]
        rows = compare_models(
            {
                "arima": lambda: ARIMA(1, 1, 1),
                "naive": lambda: NaiveLast(),
                "sarima": lambda: SeasonalARIMA(1, 0, 1, period=144),
            },
            y,
            450,
            stride=4,
        )
        assert [set(r) for r in rows] == [{"model", "mse", "rmse", "mae", "bias"}] * 3
        mses = [r["mse"] for r in rows]
        assert mses == sorted(mses)
        assert rows[0]["mse"] < rows[-1]["mse"]

    def test_empty_zoo_rejected(self):
        with pytest.raises(ForecastError):
            compare_models({}, np.arange(50.0), 25)
