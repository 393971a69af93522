"""The one series store behind every ``Forecaster.y_`` (and the selector).

``y_`` is defined once, on :class:`~repro.forecast.base.Forecaster`: an
``ndarray`` equal in value to everything fitted and appended so far, in a
buffer the model owns and extends in place.  The oracle throughout is the
copy-on-append it replaced — ``np.concatenate`` of everything fed so far.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.forecast.arima import ARIMA
from repro.forecast.naive import NaiveLast, SeasonalNaive
from repro.forecast.narnet import NARNET
from repro.forecast.sarima import SeasonalARIMA
from repro.forecast.selection import DynamicModelSelector

from tests.forecast.test_refit_determinism import _package_forecasters

common = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FACTORIES = {
    ARIMA: lambda: ARIMA(1, 1, 1, maxiter=30),
    NARNET: lambda: NARNET(ni=3, nh=4, restarts=1, maxiter=20, seed=1),
    NaiveLast: NaiveLast,
    SeasonalARIMA: lambda: SeasonalARIMA(1, 0, 1, period=4),
    SeasonalNaive: lambda: SeasonalNaive(period=4),
}
CLASSES = sorted(FACTORIES, key=lambda c: c.__name__)
by_class = pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)

# forecast(3) after fit(y[:40]) + 25 appends of _series(2015), printed by
# the commit before the store existed (copy-on-append everywhere)
PINNED = {
    ARIMA: [-0.050404827611006536, -0.12002690118538983, -0.1568460412934075],
    NARNET: [0.1258085117060997, -0.04857946393230678, -0.10399675925956078],
    NaiveLast: [0.1367249781699788, 0.1367249781699788, 0.1367249781699788],
    SeasonalARIMA: [0.18627636270526785, 0.04707312801597481, -0.026084221509192915],
    SeasonalNaive: [0.2269145629449331, 0.09777992298147177, 0.03165964411841568],
}


def _series(seed, n=70):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.05 * np.cumsum(rng.standard_normal(n)) + 0.1 * np.sin(t * np.pi / 2)


def test_every_package_forecaster_is_covered():
    assert set(_package_forecasters()) == set(FACTORIES)


@by_class
def test_post_append_forecasts_equal_the_parent_commit(cls):
    y = _series(2015)
    model = FACTORIES[cls]().fit(y[:40])
    for v in y[40:65]:
        model.append(v)
    assert model.forecast(3).tolist() == PINNED[cls]


@by_class
@common
@given(
    st.integers(0, 10**6),
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 45)),
            st.tuples(st.just("refit"), st.integers(30, 60)),
            st.tuples(st.just("assign"), st.integers(1, 40)),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_y_equals_the_concatenation_oracle(cls, seed, ops):
    """fit / append x k / refit / assign, across growth boundaries."""
    feed = iter(_series(seed, 400))
    take = lambda k: np.asarray([next(feed) for _ in range(k)])
    model = FACTORIES[cls]()
    oracle = take(36)
    model.fit(oracle)
    np.testing.assert_array_equal(model.y_, oracle)
    for op, k in ops:
        if op == "append":
            for v in take(k):
                model.append(v)
                oracle = np.concatenate((oracle, (v,)))
                np.testing.assert_array_equal(model.y_, oracle)
        elif op == "refit":
            oracle = take(k)
            model.fit(oracle)
        else:
            oracle = take(k)
            model.y_ = oracle
        assert model.y_.dtype == np.float64
        np.testing.assert_array_equal(model.y_, oracle)


@by_class
def test_fit_copies_the_window(cls):
    """A model never aliases the array it was fitted on."""
    big = _series(3, 120)
    window = big[20:80]  # a view, as the selector's refit window is
    model = FACTORIES[cls]().fit(window)
    assert not np.shares_memory(model.y_, big)
    before = model.forecast(4)
    big[:] = 9.0
    np.testing.assert_array_equal(model.y_, _series(3, 120)[20:80])
    np.testing.assert_array_equal(model.forecast(4), before)
    held = np.arange(12.0)
    model.y_ = held
    assert not np.shares_memory(model.y_, held)


def test_selector_refit_shares_no_buffer():
    """History and members each own their series, refit after refit."""
    y = _series(5, 200)
    sel = DynamicModelSelector(
        {"arima110": lambda: ARIMA(1, 1, 0, maxiter=30), "naive": NaiveLast},
        period=5, refit_every=10, max_history=40,
    ).fit(y[:60])
    assert not np.shares_memory(sel._history.buf, y)
    for v in y[60:140]:
        sel.predict_one()
        sel.observe(v)
        owners = [sel._history.buf, *(m.y_ for m in sel._models.values())]
        for i, a in enumerate(owners):
            for b in owners[i + 1:]:
                assert not np.shares_memory(a, b)
    before = sel.predict_one()
    y[:] = -1.0
    assert sel.predict_one() == before


@by_class
def test_append_does_not_reallocate_per_sample(cls):
    y = _series(7, 200)
    model = FACTORIES[cls]().fit(y[:40])
    buffer = model.y_.base
    assert buffer is not None  # y_ is a view of the store's buffer
    for v in y[40:55]:  # one short of the growth chunk
        model.append(v)
        assert model.y_.base is buffer
    for v in y[55:200]:
        model.append(v)
    np.testing.assert_array_equal(model.y_, y)
