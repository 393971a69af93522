"""Refit determinism: a refit is a function of (factory, window, seed).

A pool member seeded with a *shared* ``numpy.random.Generator`` draws from
that stream during ``fit``, so without pinning, what one member draws
would depend on how much the members before it consumed.  The selector
pins a child substream per member, in pool order, before the member fits.
And nothing is carried from the model a refit replaces: a refitted member
is bit for bit the fresh ``factory().fit(window)``.
"""

import inspect

import numpy as np
import pytest

from repro.forecast.arima import ARIMA
from repro.forecast.base import Forecaster
from repro.forecast.narnet import NARNET
from repro.forecast.selection import DynamicModelSelector
from repro.sim.reactive import PredictiveManager

from tests.sim.test_predictive import make_env


def _series(n=80, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / 12) + 0.02 * rng.standard_normal(n)


def _shared_gen_pool(gen):
    """Mixed-class pool whose NARNET members share one Generator."""
    return {
        "narnetA": lambda: NARNET(ni=4, nh=4, restarts=1, seed=gen, maxiter=30),
        "arima110": lambda: ARIMA(1, 1, 0, maxiter=40),
        "narnetB": lambda: NARNET(ni=6, nh=4, restarts=1, seed=gen, maxiter=30),
    }


def _run(seed: int = 42) -> list:
    gen = np.random.default_rng(seed)
    sel = DynamicModelSelector(
        _shared_gen_pool(gen),
        period=10,
        refit_every=15,  # the observe loop below triggers refits
    )
    y = _series()
    sel.fit(y[:48])
    preds = []
    for v in y[48:]:
        preds.append(sel.predict_one())
        sel.observe(float(v))
    return preds


class TestSharedStreamPinning:
    def test_serial_is_repeatable(self):
        assert _run() == _run()

    def test_pin_draws_in_pool_order(self):
        # member substreams are split off in pool order, so each member's
        # draws are a pure function of (seed, position): narnetB fits the
        # same however much narnetA drew before it
        y = _series(seed=9)
        gen_a = np.random.default_rng(7)
        sel_a = DynamicModelSelector(_shared_gen_pool(gen_a))
        sel_a.fit(y)
        gen_b = np.random.default_rng(7)
        pool_b = _shared_gen_pool(gen_b)
        pool_b["narnetA"] = lambda: NARNET(  # two restarts: draws twice as much
            ni=4, nh=4, restarts=2, seed=gen_b, maxiter=30
        )
        sel_b = DynamicModelSelector(pool_b)
        sel_b.fit(y)
        sel_a.predict_one()
        sel_b.predict_one()
        assert sel_a._last_pred["narnetB"] == sel_b._last_pred["narnetB"]
        assert sel_a._last_pred["arima110"] == sel_b._last_pred["arima110"]

    def test_integer_seeds_untouched(self):
        # int-seeded members never depended on order; pinning leaves them be
        pool = {
            "n1": lambda: NARNET(ni=4, nh=4, restarts=1, seed=11, maxiter=30),
            "arima": lambda: ARIMA(1, 1, 0, maxiter=40),
        }
        a = DynamicModelSelector(pool)
        b = DynamicModelSelector(pool)
        y = _series(seed=3)
        a.fit(y)
        b.fit(y)
        assert a.predict_one() == b.predict_one()


def _params(model):
    if isinstance(model, ARIMA):
        return [model.const_, *model.phi_, *model.theta_, model.sigma2_]
    return [*model.w1_.ravel(), *model.b1_, *model.w2_, model.b2_]


class TestRefitCarriesNothingOver:
    def test_selector_members_equal_a_fresh_fit_on_the_window(self):
        pool = {
            "arima111": lambda: ARIMA(1, 1, 1, maxiter=60),
            "narnet": lambda: NARNET(ni=4, nh=4, restarts=1, seed=3, maxiter=30),
        }
        sel = DynamicModelSelector(pool, period=10, refit_every=15, max_history=60)
        y = _series()
        sel.fit(y[:48])
        for v in y[48:63]:  # the 15th observe refits every member
            sel.predict_one()
            sel.observe(float(v))
        assert sel._since_fit == 0
        for name, factory in pool.items():
            assert _params(sel._models[name]) == _params(factory().fit(y[3:63])), name

    def test_manager_refit_wave_equals_fresh_fits(self):
        mgr = PredictiveManager(make_env()[1], threshold=0.9)
        for t in range(50):
            if t == 40:
                mgr.alerts_at(t)  # first fits: no outgoing model yet
            mgr.observe(t)
        mgr.alerts_at(50)  # the refit wave: every host has an outgoing model
        assert (mgr._since_fit == 0).all()
        assert mgr._fitted.all()
        for host in range(mgr._fitted.shape[0]):
            fresh = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(host))
            row = [mgr._const[host], mgr._phi[host], mgr._w_last[host], *mgr._heads[host]]
            assert row == [fresh.const_, *fresh.phi_, *fresh._w_tail, *fresh._heads], host


def _package_forecasters(base=Forecaster):
    import repro.forecast.sarima  # noqa: F401  (the one family no import above pulls in)

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
