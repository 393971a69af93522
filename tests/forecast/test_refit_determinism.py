"""Refit determinism: pool members never perturb each other's RNG stream.

A pool member seeded with a *shared* ``numpy.random.Generator`` draws from
that stream during ``fit``, so without pinning, what one member draws
would depend on how much the members before it consumed.  The selector
pins a child substream per member, in pool order, before the member fits;
these tests lock that contract in.
"""

import numpy as np
import pytest

from repro.forecast.arima import ARIMA
from repro.forecast.narnet import NARNET
from repro.forecast.selection import DynamicModelSelector


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
