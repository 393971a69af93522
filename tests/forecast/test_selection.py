"""Dynamic model selection tests (Eq. 14)."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.naive import NaiveLast, SeasonalNaive
from repro.forecast.narnet import NARNET
from repro.forecast.metrics import mse
from repro.forecast.base import Forecaster
from repro.forecast.selection import (
    DynamicModelSelector,
    SelectionTrace,
    batch_predict_one,
    rolling_one_step,
)
from repro.obs.metrics import MetricsRegistry
from repro.traces.nonlinear import mackey_glass
from repro.traces.zoplecloud import mixed_trace, weekly_traffic_trace


class TestRollingOneStep:
    def test_alignment(self):
        y = np.arange(100, dtype=float)  # perfect trend
        p = rolling_one_step(lambda: ARIMA(0, 1, 0), y, 50, refit_every=25)
        np.testing.assert_allclose(p, y[50:], atol=1e-6)

    def test_naive_predicts_previous(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=60)
        p = rolling_one_step(lambda: NaiveLast(), y, 30)
        np.testing.assert_allclose(p, y[29:-1])

    def test_max_history_bounds_refit(self):
        y = np.arange(300, dtype=float)
        p = rolling_one_step(
            lambda: ARIMA(0, 1, 0), y, 200, refit_every=10, max_history=50
        )
        np.testing.assert_allclose(p, y[200:], atol=1e-6)

    def test_bad_train_len(self):
        with pytest.raises(ForecastError):
            rolling_one_step(lambda: NaiveLast(), np.ones(10), 10)

    def test_negative_max_history_is_refused(self):
        with pytest.raises(ForecastError, match="max_history"):
            rolling_one_step(lambda: NaiveLast(), np.ones(60), 30, max_history=-5)


class TestSelector:
    def pool(self):
        return {
            "arima": lambda: ARIMA(1, 1, 1),
            "naive": lambda: NaiveLast(),
        }

    def test_requires_factories(self):
        with pytest.raises(ForecastError):
            DynamicModelSelector({})

    def test_predict_before_fit_raises(self):
        sel = DynamicModelSelector(self.pool())
        with pytest.raises(ForecastError):
            sel.predict_one()

    def test_run_produces_aligned_trace(self):
        y = weekly_traffic_trace(seed=1)[:400]
        sel = DynamicModelSelector(self.pool(), period=20, refit_every=100)
        tr = sel.run(y, 300)
        assert tr.predictions.shape == (100,)
        assert len(tr.chosen) == 100
        assert set(tr.chosen) <= set(self.pool())

    def test_combined_at_least_close_to_best(self):
        """Selector MSE should approach the best member's MSE."""
        y = mixed_trace(seed=2)[:600]
        sel = DynamicModelSelector(
            {
                "arima": lambda: ARIMA(1, 1, 1),
                "nar": lambda: NARNET(ni=8, nh=10, restarts=1, seed=3, maxiter=120),
                "naive": lambda: NaiveLast(),
            },
            period=20,
            refit_every=100,
            max_history=300,
        )
        tr = sel.run(y, 400)
        actual = y[400:]
        combined = mse(actual, tr.predictions)
        per_model = {}
        for name, p in tr.per_model_predictions.items():
            ok = ~np.isnan(p)
            per_model[name] = mse(actual[ok], p[ok])
        best = min(per_model.values())
        worst = max(per_model.values())
        assert combined <= worst
        assert combined <= best * 1.5  # close to the best member

    def test_selector_tracks_regime_change(self):
        """Pool with one model per regime: the selector must switch."""
        # first half: pure trend (ARIMA d=1 perfect); second: last-value ideal
        rng = np.random.default_rng(4)
        a = np.arange(200, dtype=float)
        b = a[-1] + np.cumsum(rng.normal(0, 5.0, size=200))
        y = np.concatenate([a, b])
        sel = DynamicModelSelector(
            {"trend": lambda: ARIMA(0, 1, 0), "naive": lambda: NaiveLast()},
            period=10,
            refit_every=50,
        )
        tr = sel.run(y, 100)
        first_half = tr.chosen[: 80]
        assert first_half.count("trend") > len(first_half) * 0.8

    def test_observe_rejects_nan(self):
        sel = DynamicModelSelector(self.pool()).fit(np.arange(50.0))
        sel.predict_one()
        with pytest.raises(ForecastError):
            sel.observe(float("nan"))

    def test_forecast_multi_step(self):
        sel = DynamicModelSelector(self.pool()).fit(np.arange(80.0))
        f = sel.forecast(5)
        assert f.shape == (5,)
        np.testing.assert_allclose(f, [80, 81, 82, 83, 84], atol=1e-5)


class TestAPredictionCountsOnce:
    """``observe`` consumes the predictions it scores.

    A second ``observe`` with no ``predict_one`` between used to score the
    stale predictions again — even one made by a member a refit had since
    replaced.
    """

    @pytest.mark.parametrize("banked", [False, True])
    def test_predict_observe_observe_records_one_error_per_member(self, banked):
        pool = {"arima110": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast}
        y = 0.5 + 0.01 * np.cumsum(np.random.default_rng(2).standard_normal(60))
        kwargs = dict(period=10, refit_every=50, max_history=60)
        sel = DynamicModelSelector(pool, **kwargs).fit(y[:40])
        twin = DynamicModelSelector(pool, **kwargs).fit(y[:40])
        twin.predict_one()
        preds = dict(twin._last_pred)
        if banked:
            batch_predict_one([sel])
            assert sel._bank is not None
        else:
            sel.predict_one()
        sel.observe(float(y[40]))
        sel.observe(float(y[41]))
        sel.best_model_name()  # a banked selector: takes its state back
        assert sel._bank is None and sel._last_pred == {}
        for name in pool:
            assert list(sel._errors[name]) == [float(y[40]) - preds[name]]


class TestHistoryIsBounded:
    """``max_history`` bounds what is stored, not only what a refit reads."""

    def pool(self):
        return {"arima110": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast}

    def test_long_run_keeps_the_window_and_every_refit(self):
        rng = np.random.default_rng(3)
        y = np.clip(0.5 + 0.02 * np.cumsum(rng.standard_normal(10_030)), 0.0, 1.0)
        kwargs = dict(period=10, refit_every=25, max_history=64)
        sel = DynamicModelSelector(self.pool(), **kwargs).fit(y[:30])
        ref = DynamicModelSelector(self.pool(), **kwargs).fit(y[:30])
        # the reference keeps everything and trims at read, as before
        ref._history = type(ref._history)(ref._history.values)
        for step, v in enumerate(y[30:], 1):
            assert sel.predict_one() == ref.predict_one()
            assert sel._last_best == ref._last_best
            sel.observe(v)
            ref.observe(v)
            assert sel._history.buf.shape[0] <= 64 + 16
            if step % 25 == 0:  # both just refitted
                assert sel._since_fit == 0
                a, b = sel._models["arima110"], ref._models["arima110"]
                assert (a.const_, a.phi_.tolist()) == (b.const_, b.phi_.tolist())
                for name, model in sel._models.items():
                    np.testing.assert_array_equal(model.y_, ref._models[name].y_)
                assert sel._last_pred == ref._last_pred
        assert ref._history.n == 10_030
        np.testing.assert_array_equal(sel._history.values[-64:], y[-64:])

    def test_negative_max_history_is_refused(self):
        with pytest.raises(ForecastError, match="max_history"):
            DynamicModelSelector(self.pool(), max_history=-5, refit_every=10)

    def test_unbounded_selector_keeps_everything(self):
        y = np.linspace(0.2, 0.8, 400)
        sel = DynamicModelSelector(self.pool(), refit_every=50).fit(y[:30])
        for v in y[30:]:
            sel.observe(v)
        np.testing.assert_array_equal(sel._history.values, y)


class _FailsWhenSwitchedOn(ARIMA):
    """ARIMA whose fit diverges while ``failing`` is switched on."""

    failing = False

    def fit(self, y):
        if self.failing:
            raise ConvergenceError("refit diverged")
        return super().fit(y)


class TestFailedRefitDropsTheMember:
    def test_survivors_answer_and_nothing_counts_as_a_fallback(self, monkeypatch):
        reg = MetricsRegistry()
        pool = {
            "arima111": lambda: _FailsWhenSwitchedOn(1, 1, 1, maxiter=60),
            "arima110": lambda: ARIMA(1, 1, 0),
            "naive": NaiveLast,
        }
        sel = DynamicModelSelector(pool, period=5, refit_every=10, metrics=reg)
        rng = np.random.default_rng(8)
        y = 0.5 + np.cumsum(0.01 * rng.standard_normal(80))
        sel.fit(y[:40])
        monkeypatch.setattr(_FailsWhenSwitchedOn, "failing", True)
        for k, v in enumerate(y[40:59]):  # the 10th observe refits; arima111 raises
            assert np.isfinite(sel.predict_one())
            assert k < 10 or sel._last_best in ("arima110", "naive")
            sel.observe(float(v))
        assert list(sel._models) == ["arima110", "naive"]
        # the member did not fail to *predict*: no fallback was taken
        assert reg.total("sheriff_selector_fallback_total") == 0
        monkeypatch.setattr(_FailsWhenSwitchedOn, "failing", False)
        sel.predict_one()
        sel.observe(float(y[59]))  # next period: the member is back
        assert list(sel._models) == list(pool)


class _RaisesOnFit(ARIMA):
    """ARIMA whose fit raises ``error`` (an exception instance) when set."""

    error = None

    def fit(self, y):
        if self.error is not None:
            raise self.error
        return super().fit(y)


def _raising(error):
    return type("Raising", (_RaisesOnFit,), {"error": error})


class TestRefitWavePolicy:
    """The selector refits its pool as one wave; its policy is unchanged."""

    def series(self):
        rng = np.random.default_rng(8)
        return 0.5 + np.cumsum(0.01 * rng.standard_normal(80))

    def test_a_failing_member_beside_a_stacked_group_is_dropped(self, monkeypatch):
        pool = {
            "a": lambda: ARIMA(1, 1, 0),
            "bad": lambda: _FailsWhenSwitchedOn(1, 1, 0),
            "b": lambda: ARIMA(1, 1, 0),  # "a" and "b" are one stacked group
        }
        sel = DynamicModelSelector(pool, period=5, refit_every=10)
        y = self.series()
        sel.fit(y[:40])
        monkeypatch.setattr(_FailsWhenSwitchedOn, "failing", True)
        for v in y[40:50]:
            sel.predict_one()
            sel.observe(float(v))
        assert list(sel._models) == ["a", "b"]
        fresh = ARIMA(1, 1, 0).fit(y[:50])
        for name in ("a", "b"):
            model = sel._models[name]
            assert (model.const_, model.phi_.tolist()) == (fresh.const_, fresh.phi_.tolist())

    def test_every_member_failing_raises_and_names_the_failures(self):
        pool = {
            "x": lambda: _raising(ConvergenceError("x diverged"))(1, 1, 0),
            "y": lambda: _raising(ForecastError("y too short"))(1, 1, 0),
        }
        with pytest.raises(ConvergenceError, match="every pool member") as info:
            DynamicModelSelector(pool).fit(self.series())
        assert "x diverged" in str(info.value) and "y too short" in str(info.value)

    @pytest.mark.parametrize("error", [ValueError("bad window"), TypeError("bad call")])
    def test_an_error_outside_the_policy_propagates(self, error, monkeypatch):
        pool = {"ok": lambda: ARIMA(1, 1, 0), "odd": lambda: _RaisesOnFit(1, 1, 0)}
        sel = DynamicModelSelector(pool, period=5, refit_every=5)
        y = self.series()
        sel.fit(y[:40])
        before = dict(sel._models)
        monkeypatch.setattr(_RaisesOnFit, "error", error)
        for v in y[40:44]:
            sel.predict_one()
            sel.observe(float(v))
        sel.predict_one()
        with pytest.raises(type(error), match=str(error)):
            sel.observe(float(y[44]))  # the fifth observe refits the pool
        assert sel._models == before

    def test_rolling_one_step_refit_failure_propagates(self):
        fits = []

        def factory():
            fits.append(None)
            return ARIMA(1, 1, 0) if len(fits) == 1 else _raising(
                ConvergenceError("refit diverged")
            )(1, 1, 0)

        with pytest.raises(ConvergenceError, match="refit diverged"):
            rolling_one_step(factory, self.series(), 40, refit_every=10)


class TestSeasonalNaive:
    def test_repeats_last_season(self):
        period = 10
        y = np.tile(np.arange(10.0), 5)
        m = SeasonalNaive(period=period).fit(y)
        np.testing.assert_array_equal(m.forecast(10), np.arange(10.0))

    def test_wraps_past_one_season(self):
        m = SeasonalNaive(period=3).fit(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(m.forecast(5), [1, 2, 3, 1, 2])


class Stub(Forecaster):
    """Controllable pool member: scripted prediction, failure."""

    def __init__(self, value=0.0, fail=False):
        self.value = value
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
