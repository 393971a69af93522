"""A selector bank's lifecycle: who joins, when it settles, who leaves.

``batch_predict_one`` moves a fleet's plain selectors into a
:class:`~repro.forecast.selection.SelectorBank` on its first read and
reuses it while the fleet stays the same; a scalar call takes one row
back for good; ``fleet_alert_values`` never hands the bank a monitor that
needs the scalar path.  A refit wave runs a factory only for a row the
closed-form solve refuses.  ``assert_twins`` (the property suite's)
compares a selector taken back from its bank with a scalar twin, bit for
bit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.alerts import monitor
from repro.alerts.monitor import (
    VMMonitor,
    default_model_pool,
    fleet_alert_values,
    light_model_pool,
)
from repro.alerts.threshold import AlertConfig
from repro.errors import ConvergenceError
from repro.forecast import batch
from repro.forecast.arima import ARIMA
from repro.forecast.naive import NaiveLast
from repro.forecast.narnet import NARNET
from repro.forecast.selection import DynamicModelSelector, SelectorBank, batch_predict_one
from repro.obs.tracer import RecordingTracer

from tests.property.test_selector_bank import assert_twins
from tests.refit_faults import fail_refits

PLAIN = AlertConfig(threshold=0.6)


def _monitors(configs, seed=0, pools=None):
    rng = np.random.default_rng(seed)
    monitors, rows = [], []
    with pytest.MonkeyPatch.context() as mp:  # fast refits, short memory
        mp.setattr(monitor, "PERIOD", 4)
        mp.setattr(monitor, "REFIT_EVERY", 5)
        mp.setattr(monitor, "MAX_HISTORY", 30)
        for config, pool in zip(configs, pools or [light_model_pool] * len(configs)):
            mp.setattr(monitor, "light_model_pool", pool)
            level = rng.uniform(0.3, 0.8)
            series = np.clip(level + 0.05 * rng.standard_normal((60, 4)), 0.0, 1.0)
            monitors.append(VMMonitor(series[:28], config))
            rows.append(series[28:])
    return monitors, rows


def _pool():
    return {"arima110": lambda: ARIMA(1, 1, 0, maxiter=40), "naive": NaiveLast}


def _arima_pool():
    return {"arima110": lambda: ARIMA(1, 1, 0, maxiter=40),
            "arima100": lambda: ARIMA(1, 0, 0, maxiter=40)}


def _counted(made, pool):
    """*pool* with each factory counting its calls in *made*."""
    def counting(name, make):
        def factory():
            made[name] += 1
            return make()
        return factory

    return lambda: {name: counting(name, make) for name, make in pool().items()}


def _selectors(n, seed=0, pool=_pool, **kwargs):
    rng = np.random.default_rng(seed)
    kwargs = {"period": 4, "refit_every": 5, "max_history": 30, **kwargs}
    out, series = [], []
    for _ in range(n):
        y = np.clip(0.5 + 0.02 * np.cumsum(rng.standard_normal(80)), 0.0, 1.0)
        out.append(DynamicModelSelector(pool(), **kwargs).fit(y[:30]))
        series.append(y[30:])
    return out, series


def _shifted(pool):
    """Three selectors, row 1 ten units up: only its windows top 5."""
    sels, series = _selectors(3, pool=pool)
    sels[1].fit(np.full(30, 10.5))
    series[1] = series[1] + 10.0
    return sels, series


def _step(fleet, twins, series, t):
    """One round on both sides: a fleet read, then every observe."""
    got = batch_predict_one(fleet).tolist()
    assert got == [s.predict_one() for s in twins]
    for sel, twin, y in zip(fleet, twins, series):
        sel.observe(float(y[t]))
        twin.observe(float(y[t]))


@pytest.fixture
def adoptions(monkeypatch):
    """Rows moved into any bank, counted."""
    moved = []
    adopt = SelectorBank._adopt

    def counting(self, row, sel):
        moved.append(sel)
        adopt(self, row, sel)

    monkeypatch.setattr(SelectorBank, "_adopt", counting)
    return moved


class TestWhoJoins:
    def test_a_steady_fleet_is_adopted_once(self, adoptions):
        monitors, rows = _monitors([PLAIN] * 5)
        for r in range(12):  # two refits a monitor, windows sliding
            fleet_alert_values(monitors)
            for mon, row in zip(monitors, rows):
                mon.observe(row[r])
        assert len(adoptions) == 20
        bank = monitors[0]._selectors[0]._bank
        assert bank.n_banked == 20
        assert all(sel._bank is bank for mon in monitors for sel in mon._selectors)

    def test_horizon_two_and_scalar_pool_monitors_are_never_adopted(self, adoptions):
        configs = [
            PLAIN,
            AlertConfig(threshold=0.6, horizon=2),
            AlertConfig(threshold=0.8, horizon=2),
            PLAIN,  # the paper's pool: ARIMA(1, 1, 1) and NARNET members
        ]
        pools = [light_model_pool] * 3 + [default_model_pool]
        monitors, rows = _monitors(configs, pools=pools)
        twins, _ = _monitors(configs, pools=pools)
        for r in range(8):
            got = fleet_alert_values(monitors)
            want = [m.alert_value() for m in twins]
            assert got.tolist() == want
            for mon, twin, row in zip(monitors, twins, rows):
                mon.observe(row[r])
                twin.observe(row[r])
        assert adoptions == monitors[0]._selectors  # adopted once, nothing else
        assert all(sel._bank is None for mon in monitors[1:] for sel in mon._selectors)

    def test_a_reordered_monitor_fleet_reads_with_its_own_thresholds(self):
        # same first monitor, other order and members: the read plan (which
        # monitors are one-step, their thresholds) must follow the fleet
        configs = [
            AlertConfig(threshold=0.35),
            AlertConfig(threshold=0.9),
            AlertConfig(threshold=0.5, horizon=2),
            AlertConfig(threshold=0.6),
        ]
        monitors, rows = _monitors(configs)
        twins, _ = _monitors(configs)
        seen = [0] * 4
        for order in ([0, 1, 2, 3], [0, 3, 1], [0, 1, 2, 3], [0, 2, 3, 1]):
            got = fleet_alert_values([monitors[i] for i in order])
            assert got.tolist() == [twins[i].alert_value() for i in order]
            for i in order:
                monitors[i].observe(rows[i][seen[i]])
                twins[i].observe(rows[i][seen[i]])
                seen[i] += 1
        with pytest.raises(AttributeError):  # a fleet read plans on it
            monitors[0].config = configs[1]

    def test_a_changed_fleet_builds_a_new_bank(self):
        fleet, series = _selectors(4)
        twins, _ = _selectors(4)
        _step(fleet, twins, series, 0)
        old = fleet[0]._bank
        _step(fleet[:3], twins[:3], series, 1)
        new = fleet[0]._bank
        assert new is not old and new.n_banked == 3
        # the one left out stays in the old bank until it is touched
        assert fleet[3]._bank is old and old.n_banked == 1
        fleet[3].observe(float(series[3][1]))  # the old bank's only row: settles
        twins[3].observe(float(series[3][1]))
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    @pytest.mark.parametrize("other", [[2, 1, 0], [3, 1, 2]])
    def test_reading_another_fleet_and_back_keeps_every_selector_exact(self, other):
        # X, Y, X over shared selectors, Y led by another selector: the
        # second read of X finds its old bank, whose rows Y's bank now holds
        fleet, series = _selectors(4)
        twins, _ = _selectors(4)
        seen = [0] * 4
        for positions in ([0, 1, 2], other, [0, 1, 2], [0, 1, 2], other, [0, 1, 2]):
            got = batch_predict_one([fleet[i] for i in positions]).tolist()
            assert got == [twins[i].predict_one() for i in positions]
            for i in positions:
                value = float(series[i][seen[i]])
                fleet[i].observe(value)
                twins[i].observe(value)
                seen[i] += 1
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    def test_a_scalar_call_releases_one_row_for_good(self, adoptions):
        fleet, series = _selectors(4)
        twins, _ = _selectors(4)
        _step(fleet, twins, series, 0)
        bank = fleet[0]._bank
        np.testing.assert_array_equal(fleet[2].forecast(2), twins[2].forecast(2))
        assert fleet[2]._bank is None and bank.n_banked == 3
        assert [s._bank for s in fleet] == [bank, bank, None, bank]
        for t in range(1, 4):  # the released row steps scalar meanwhile
            fleet[2].predict_one()
            twins[2].predict_one()
            fleet[2].observe(float(series[2][t]))
            twins[2].observe(float(series[2][t]))
        for t in range(4, 12):  # later reads of the fleet, refits among them
            _step(fleet, twins, series, t)
            assert [s._bank for s in fleet] == [bank, bank, None, bank]
        assert len(adoptions) == 4  # each row once
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_history": None},
            {"max_history": 0, "refit_every": 40},  # 0 is unbounded too
            {"tracer": RecordingTracer()},
        ],
    )
    def test_selectors_outside_the_bank_kinds_answer_scalar(self, kwargs):
        fleet, series = _selectors(3, **kwargs)
        twins, _ = _selectors(3, **kwargs)
        for t in range(12):
            _step(fleet, twins, series, t)
            assert all(sel._bank is None for sel in fleet)

    def test_a_pool_outside_the_bank_kinds_answers_scalar(self):
        def pool():
            return {"narnet": lambda: NARNET(ni=2, nh=2, restarts=1, seed=3, maxiter=10),
                    "naive": NaiveLast}

        y = np.linspace(0.2, 0.6, 40)
        sel = DynamicModelSelector(pool(), max_history=30).fit(y)
        twin = DynamicModelSelector(pool(), max_history=30).fit(y)
        assert batch_predict_one([sel]).tolist() == [twin.predict_one()]
        assert sel._bank is None


class TestSettle:
    def test_the_last_staged_row_settles_the_bank(self):
        fleet, series = _selectors(3)
        batch_predict_one(fleet)
        bank = fleet[0]._bank
        fleet[0].observe(0.5)
        fleet[1].observe(0.5)
        assert list(bank._staged) == [0, 1]
        assert bank.step.tolist() == [0, 0, 0]
        fleet[2].observe(0.5)
        assert not bank._staged
        assert bank.step.tolist() == [1, 1, 1]

    def test_a_second_value_for_a_row_settles_the_first(self):
        fleet, series = _selectors(3)
        twins, _ = _selectors(3)
        batch_predict_one(fleet)
        for s in twins:
            s.predict_one()
        for value in (0.4, 0.6):  # two observes of row 1, no predict between
            fleet[1].observe(value)
            twins[1].observe(value)
        bank = fleet[0]._bank
        assert bank.step.tolist() == [0, 1, 0] and list(bank._staged) == [1]
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    @staticmethod
    def _poisoned(monkeypatch):
        """Three banked selectors and twins, one refit step from row 1 failing.

        An ``ARIMA``-only pool: a ``NaiveLast`` fit of a finite window
        cannot fail, so row 1 loses every member.
        """
        (fleet, series), (twins, _) = _shifted(_arima_pool), _shifted(_arima_pool)
        fail_refits(monkeypatch, lambda y, d: np.max(y) > 5)  # row 1's windows
        for t in range(4):
            _step(fleet, twins, series, t)
        batch_predict_one(fleet)
        for s in twins:
            s.predict_one()
        return fleet, twins, series

    def test_every_member_failing_installs_the_other_rows_then_raises(self, monkeypatch):
        fleet, twins, series = self._poisoned(monkeypatch)
        twins[0].observe(float(series[0][4]))
        with pytest.raises(ConvergenceError, match="every pool member failed"):
            twins[1].observe(float(series[1][4]))
        twins[2].observe(float(series[2][4]))
        bank = fleet[0]._bank
        fleet[0].observe(float(series[0][4]))
        fleet[1].observe(float(series[1][4]))
        with pytest.raises(ConvergenceError, match="row 1: every pool member failed"):
            fleet[2].observe(float(series[2][4]))  # the last row settles the bank
        assert fleet[1]._bank is None  # keeps its outgoing members, scalar
        assert [s._bank for s in (fleet[0], fleet[2])] == [bank, bank]
        assert bank.since.tolist()[::2] == [0, 0]  # the others refitted
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    def test_a_release_whose_settle_raises_still_takes_its_row_back(self, monkeypatch):
        fleet, twins, series = self._poisoned(monkeypatch)
        with pytest.raises(ConvergenceError):
            twins[1].observe(float(series[1][4]))
        fleet[1].observe(float(series[1][4]))  # staged: fails at the next settle
        with pytest.raises(ConvergenceError, match="row 1: every pool member failed"):
            fleet[0].forecast(2)  # row 0's release settles row 1
        assert fleet[0]._bank is None and fleet[1]._bank is None
        np.testing.assert_array_equal(fleet[0].forecast(2), twins[0].forecast(2))
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)


class TestRefitWave:
    def test_an_accepted_wave_calls_no_factory_and_a_release_one_a_member(self):
        made = Counter()
        fleet, series = _selectors(4, pool=_counted(made, _pool))
        twins, _ = _selectors(4)
        made.clear()
        for t in range(10):  # two refit waves, every row solved in closed form
            _step(fleet, twins, series, t)
        bank = fleet[0]._bank
        assert bank.step.tolist() == [10] * 4 and bank.since.tolist() == [0] * 4
        assert not made
        np.testing.assert_array_equal(fleet[2].forecast(2), twins[2].forecast(2))
        assert made == {"arima110": 1, "naive": 1}  # the release builds its members
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    def test_a_refused_row_fits_once_a_wave_and_keeps_its_other_member(self, monkeypatch):
        made = Counter()
        (fleet, series), (twins, _) = _shifted(_counted(made, _arima_pool)), _shifted(_arima_pool)
        # row 1's ARIMA(1, 0, 0) refits fail; its ARIMA(1, 1, 0) refits do not
        attempts = fail_refits(monkeypatch, lambda y, d: d == 0 and np.max(y) > 5)
        made.clear()
        banked = 0  # failed fits in the bank's waves
        for t in range(10):  # two refit waves
            assert batch_predict_one(fleet).tolist() == [s.predict_one() for s in twins]
            before = len(attempts)
            for sel, y in zip(fleet, series):
                sel.observe(float(y[t]))
            banked += len(attempts) - before
            for twin, y in zip(twins, series):
                twin.observe(float(y[t]))
        assert banked == 2  # once a wave, in the stack's scalar fallback
        assert made == {"arima100": 2}  # that fallback's member, nothing else
        bank = fleet[0]._bank
        assert fleet[1]._bank is bank
        assert bank.alive.tolist() == [[True, True], [True, False], [True, True]]
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    def test_a_window_shorter_than_an_order_keeps_its_member_dropped(self):
        fleet, series = _selectors(2, max_history=1, refit_every=2)
        twins, _ = _selectors(2, max_history=1, refit_every=2)
        for t in range(6):  # three waves over one-sample windows
            _step(fleet, twins, series, t)
        assert fleet[0]._bank.alive.tolist() == [[False, True]] * 2
        for sel, twin in zip(fleet, twins):
            assert_twins(sel, twin)

    def test_a_stack_that_fails_whole_raises_and_installs_nothing(self, monkeypatch):
        fleet, series = _selectors(3)
        batch_predict_one(fleet)
        bank = fleet[0]._bank
        for t in range(4):
            for sel, y in zip(fleet, series):
                sel.observe(float(y[t]))

        def broken(Y, d, include_constant):
            raise ValueError("solve failed")

        monkeypatch.setattr(batch, "_solve_ar1", broken)
        with pytest.raises(ValueError, match="solve failed"):
            for sel, y in zip(fleet, series):  # the fifth value: a wave
                sel.observe(float(y[4]))
        assert bank.n_banked == 3 and bank.since.tolist() == [5] * 3
        assert bank.slen.tolist() == [35] * 3  # the series is not cut to the window
