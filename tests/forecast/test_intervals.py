"""Prediction intervals + the confidence-aware selector (and its bugfixes)."""

import inspect

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.base import Forecaster, PredictionInterval
from repro.forecast.metrics import mse
from repro.forecast.naive import NaiveLast, SeasonalNaive
from repro.forecast.narnet import NARNET
from repro.forecast.selection import (
    DynamicModelSelector,
    SelectionTrace,
    batch_predict_one,
)
from repro.obs.metrics import MetricsRegistry


class Stub(Forecaster):
    """Controllable pool member: scripted prediction, width, failure."""

    supports_intervals = True

    def __init__(self, value=0.0, half_width=0.05, fail=False):
        self.value = value
        self.half_width = half_width
        self.fail = fail

    def fit(self, y):
        self._fitted = True
        return self

    def forecast(self, h=1):
        if self.fail:
            raise ForecastError("scripted failure")
        return np.full(h, float(self.value))

    def append(self, value):
        pass

    def forecast_interval(self, h=1, alpha=0.05):
        mean = self.forecast(h)
        w = np.full(h, float(self.half_width))
        return mean, mean - w, mean + w


def _package_forecasters(base=Forecaster):
    import repro.forecast.sarima  # noqa: F401  (the one family not imported above)

    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro.forecast."):
            yield cls
        yield from _package_forecasters(cls)


@pytest.mark.parametrize(
    "cls", sorted(_package_forecasters(), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_fit_takes_the_series_and_nothing_else(cls):
    """A refit is a function of (factory, window, seed): no side channel."""
    assert list(inspect.signature(cls.fit).parameters) == ["self", "y"]


class TestPredictionInterval:
    def test_validates_bracketing(self):
        with pytest.raises(ForecastError):
            PredictionInterval(mean=1.0, lower=1.5, upper=2.0, alpha=0.1)
        with pytest.raises(ForecastError):
            PredictionInterval(mean=1.0, lower=0.5, upper=0.9, alpha=0.1)

    def test_validates_alpha(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ForecastError):
                PredictionInterval(mean=0.0, lower=-1.0, upper=1.0, alpha=alpha)

    def test_width(self):
        iv = PredictionInterval(mean=0.5, lower=0.2, upper=1.0, alpha=0.1)
        assert iv.width == pytest.approx(0.8)
        assert iv.half_width == pytest.approx(0.4)


class TestModelIntervals:
    """Every advertised family brackets its mean and is deterministic."""

    def fitted_models(self):
        rng = np.random.default_rng(7)
        y = 0.5 + 0.1 * np.cumsum(rng.standard_normal(80))
        return [
            ARIMA(1, 1, 0, maxiter=40).fit(y),
            NaiveLast().fit(y),
            SeasonalNaive(period=8).fit(y),
            NARNET(ni=6, nh=6, restarts=1, seed=5, maxiter=60).fit(y),
        ]

    def test_bands_bracket_mean(self):
        for model in self.fitted_models():
            assert model.supports_intervals
            mean, lower, upper = model.forecast_interval(4, alpha=0.1)
            assert mean.shape == lower.shape == upper.shape == (4,)
            assert (lower <= mean + 1e-12).all()
            assert (mean <= upper + 1e-12).all()
            np.testing.assert_allclose(mean, model.forecast(4))

    def test_deterministic(self):
        for model in self.fitted_models():
            a = model.forecast_interval(3, alpha=0.1)
            b = model.forecast_interval(3, alpha=0.1)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_lower_alpha_widens(self):
        for model in self.fitted_models():
            tight = model.predict_one_interval(alpha=0.4)
            wide = model.predict_one_interval(alpha=0.05)
            assert wide.width >= tight.width - 1e-12

    def test_narnet_interval_does_not_perturb_forecasts(self):
        rng = np.random.default_rng(11)
        y = np.sin(np.linspace(0, 12, 90)) + 0.05 * rng.standard_normal(90)
        m = NARNET(ni=6, nh=6, restarts=1, seed=3, maxiter=60).fit(y)
        before = m.forecast(3)
        m.forecast_interval(3, alpha=0.1)
        np.testing.assert_array_equal(m.forecast(3), before)

    def test_unsupported_raises(self):
        class Plain(Forecaster):
            def fit(self, y):
                self._fitted = True
                return self

            def forecast(self, h=1):
                return np.zeros(h)

            def append(self, value):
                pass

        with pytest.raises(ForecastError, match="does not produce"):
            Plain().fit(np.zeros(4)).forecast_interval(1)

    def test_naive_needs_history(self):
        m = NaiveLast().fit(np.array([1.0, 2.0]))
        with pytest.raises(ForecastError):
            m.forecast_interval(1)


def scripted_selector(**kwargs):
    """bad/mid/good pool in an order that exposes the fallback bug."""
    stubs = {
        "bad": Stub(value=0.0),
        "mid": Stub(value=0.0),
        "good": Stub(value=0.0),
    }
    sel = DynamicModelSelector(
        {name: (lambda s=s: s) for name, s in stubs.items()},
        period=10,
        refit_every=10_000,
        **kwargs,
    ).fit(np.zeros(8))
    return sel, stubs


class TestSelectorFallbackBugfix:
    def seed_errors(self, sel, stubs, rounds=4):
        """bad scores best, then good, then mid (insertion order: mid first)."""
        for _ in range(rounds):
            stubs["bad"].value = 0.0
            stubs["mid"].value = 0.5
            stubs["good"].value = 0.1
            sel.predict_one()
            sel.observe(0.0)

    def test_fallback_picks_lowest_mse_not_insertion_order(self):
        reg = MetricsRegistry()
        sel, stubs = scripted_selector(metrics=reg)
        self.seed_errors(sel, stubs)
        assert sel.best_model_name() == "bad"
        stubs["bad"].fail = True
        pred = sel.predict_one()
        # the Eq. 14 winner failed; the answer must come from the best
        # *remaining* member ("good"), not the first surviving dict key
        # ("mid", the old insertion-order bug)
        assert sel._last_best == "good"
        assert pred == pytest.approx(0.1)
        assert reg.counter("sheriff_selector_fallback_total", model="good").value == 1

    def test_batch_path_uses_same_fallback(self):
        sel, stubs = scripted_selector()
        self.seed_errors(sel, stubs)
        stubs["bad"].fail = True
        (pred,) = batch_predict_one([sel])
        assert sel._last_best == "good"
        assert pred == pytest.approx(0.1)


class TestIncrementalGaugeBugfix:
    def test_gauge_matches_full_recompute_across_eviction(self):
        reg = MetricsRegistry()
        sel, stubs = scripted_selector(metrics=reg)
        rng = np.random.default_rng(3)
        # 30 rounds >> period=10: plenty of deque evictions
        for _ in range(30):
            for s in stubs.values():
                s.value = float(rng.normal())
            sel.predict_one()
            sel.observe(float(rng.normal()))
        for name in sel.names:
            errs = np.asarray(sel._errors[name])
            expected = float(np.mean(errs * errs))
            gauge = reg.gauge("sheriff_forecast_trailing_mse", model=name).value
            assert gauge == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_selection_still_reads_exact_deques(self):
        """The incremental sums are observability-only: arbitration is exact."""
        sel, stubs = scripted_selector()
        rng = np.random.default_rng(5)
        for _ in range(25):
            for s in stubs.values():
                s.value = float(rng.normal())
            sel.predict_one()
            sel.observe(float(rng.normal()))
        scores = {
            n: float(np.mean(np.asarray(sel._errors[n]) ** 2)) for n in sel.names
        }
        assert sel.best_model_name() == min(sorted(scores), key=scores.get)


class TestFailedMaskBugfix:
    def test_run_records_failed_steps(self):
        sel, stubs = scripted_selector()
        y = np.zeros(20)
        # fail "bad" from the start: run() must mask it, not carry NaN
        stubs["bad"].fail = True
        trace = sel.run(y, 8)
        assert trace.failed["bad"].all()
        assert not trace.failed["good"].any()
        # masked MSE works for survivors, raises for the all-failed member
        assert trace.model_mse("good", y[8:]) >= 0.0
        with pytest.raises(ForecastError, match="failed every step"):
            trace.model_mse("bad", y[8:])

    def test_mse_rejects_nan_predictions(self):
        with pytest.raises(ForecastError, match="mask them first"):
            mse(np.zeros(3), np.array([0.0, np.nan, 0.0]))

    def test_masks_derived_when_omitted(self):
        trace = SelectionTrace(
            chosen=["a", "a"],
            predictions=np.zeros(2),
            per_model_predictions={"a": np.array([0.0, np.nan])},
        )
        np.testing.assert_array_equal(trace.failed["a"], [False, True])


class TestConfidenceMode:
    def test_off_by_default_is_identical(self):
        a = DynamicModelSelector(
            {"arima": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast}
        )
        b = DynamicModelSelector(
            {"arima": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast}
        )
        rng = np.random.default_rng(9)
        y = 0.5 + 0.05 * np.cumsum(rng.standard_normal(60))
        a.fit(y[:40])
        b.fit(y[:40])
        for t in range(40, 60):
            assert a.predict_one() == b.predict_one()
            a.observe(y[t])
            b.observe(y[t])
        assert a.last_interval is None

    def test_widens_on_width_spike(self):
        reg = MetricsRegistry()
        stub = Stub(value=0.5, half_width=0.01)
        sel = DynamicModelSelector(
            {"only": lambda: stub},
            period=10,
            refit_every=10_000,
            confidence=True,
            width_spike=2.0,
            metrics=reg,
        ).fit(np.zeros(8))
        for _ in range(5):  # build the trailing width history
            assert sel.predict_one() == pytest.approx(0.5)
            sel.observe(0.5)
        stub.half_width = 0.2  # 40x the median width: a spike
        pred = sel.predict_one()
        assert pred == pytest.approx(0.7)  # the interval's upper bound
        assert sel.last_interval is not None
        assert reg.counter("sheriff_confidence_widened_total", model="only").value == 1

    def test_normal_width_keeps_point_forecast(self):
        stub = Stub(value=0.5, half_width=0.01)
        sel = DynamicModelSelector(
            {"only": lambda: stub},
            period=10,
            refit_every=10_000,
            confidence=True,
        ).fit(np.zeros(8))
        for _ in range(6):
            assert sel.predict_one() == pytest.approx(0.5)
            sel.observe(0.5)

    def test_validates_knobs(self):
        with pytest.raises(ForecastError):
            DynamicModelSelector({"n": NaiveLast}, interval_alpha=1.5)
        with pytest.raises(ForecastError):
            DynamicModelSelector({"n": NaiveLast}, width_spike=0.9)

    def test_last_answer_interval(self):
        stub = Stub(value=0.5, half_width=0.02)
        sel = DynamicModelSelector(
            {"only": lambda: stub}, period=10, refit_every=10_000
        ).fit(np.zeros(8))
        assert sel.last_answer_interval() is None  # nothing answered yet
        sel.predict_one()
        iv = sel.last_answer_interval(alpha=0.1)
        assert iv is not None
        assert iv.upper == pytest.approx(0.52)

    def test_batch_routes_confidence_scalar_and_matches(self):
        """Mixed fleet: plain members batched, confidence members scalar."""

        def make(confidence):
            return DynamicModelSelector(
                {"arima": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast},
                period=10,
                confidence=confidence,
            )

        rng = np.random.default_rng(21)
        y = 0.5 + 0.05 * np.cumsum(rng.standard_normal(70))
        fleet = [make(False), make(True), make(False), make(True)]
        twins = [make(False), make(True), make(False), make(True)]
        for s in fleet + twins:
            s.fit(y[:50])
        for t in range(50, 70):
            batched = batch_predict_one(fleet)
            scalar = [s.predict_one() for s in twins]
            assert batched == scalar
            for s in fleet + twins:
                s.observe(y[t])
