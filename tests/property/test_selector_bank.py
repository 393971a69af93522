"""A selector bank is its scalar twins, bit for bit.

:class:`~repro.forecast.selection.SelectorBank` holds a fleet of plain
selectors as arrays, and :class:`DynamicModelSelector` stays the
definition.  Hypothesis builds two identical fleets — one read through
``batch_predict_one`` (banked), one stepped selector by selector — and
drives both through the same random interleaving of fleet reads, partial
and double observes, scalar calls that release a row mid-stream (with
scalar steps after them) and the re-adoption that follows.  Pools mix
``ARIMA(1, d, 0)`` (``d`` in {0, 1, 2}, constant on and off) with
``NaiveLast``; windows are small, so they fill, slide and refit.  One
selector may see a constant series (its ARIMA refits leave the stacked
solve for the scalar fit) and one may start with a member dropped by a too
short first window.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.forecast.arima import ARIMA
from repro.forecast.metrics import trailing_mse
from repro.forecast.naive import NaiveLast
from repro.forecast.selection import DynamicModelSelector, _window, batch_predict_one

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TOUCHES = ("best", "forecast", "predict")


def _factory(kind, d, constant):
    if kind == "naive":
        return NaiveLast
    return lambda: ARIMA(1, d, 0, include_constant=constant, maxiter=20)


@st.composite
def fleets(draw):
    """A fleet spec: pools, tuning, training series and an operation list."""
    n_sel = draw(st.integers(1, 4))
    member = st.tuples(st.sampled_from(("arima", "naive")), st.integers(0, 2), st.booleans())
    pools = draw(st.lists(st.lists(member, min_size=1, max_size=3), min_size=1, max_size=2))
    tuning = dict(
        period=draw(st.integers(1, 12)),  # 8 and up: numpy's pairwise sum
        refit_every=draw(st.integers(1, 6)),
        max_history=draw(st.integers(9, 16)),
    )
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n_sel):
        pool = pools[draw(st.integers(0, len(pools) - 1))]
        train = draw(st.integers(9, 20))  # an ARIMA(1, 2, 0) needs 11
        constant = i == 0 and draw(st.booleans())
        level = rng.uniform(0.2, 0.8)
        series = np.full(train + 200, level) if constant else np.clip(
            level + 0.05 * np.cumsum(rng.standard_normal(train + 200)), 0.0, 1.0
        )
        specs.append((pool, train, series))
    op = st.one_of(
        st.just(("read",)),
        st.just(("observe_all",)),
        st.tuples(st.just("observe"), st.integers(0, n_sel - 1)),
        st.tuples(st.just("touch"), st.integers(0, n_sel - 1), st.sampled_from(TOUCHES)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    return tuning, specs, ops


def _build(tuning, specs):
    fleet = []
    for pool, train, series in specs:
        factories = {
            f"{kind}{d}{'c' if constant else ''}{k}": _factory(kind, d, constant)
            for k, (kind, d, constant) in enumerate(pool)
        }
        sel = DynamicModelSelector(factories, **tuning)
        sel.fit(series[:train])
        fleet.append(sel)
    return fleet


def _hex(values):
    return [float(v).hex() for v in values]


def _owned_arrays(sel):
    arrays = [sel._history.buf]
    for model in sel._models.values():
        arrays.append(model.y_)
        if isinstance(model, ARIMA):
            arrays += [model.phi_, model.theta_]
    return arrays


def assert_twins(a, b):
    """*a* taken back from its bank (if it is in one) equals *b* exactly."""
    bank = a._bank
    assert a.best_model_name() == b.best_model_name()
    assert a._bank is None
    assert a._last_best == b._last_best
    assert list(a._last_pred) == list(b._last_pred)
    assert _hex(a._last_pred.values()) == _hex(b._last_pred.values())
    assert (a._step, a._since_fit) == (b._step, b._since_fit)
    for name in a.names:
        assert _hex(a._errors[name]) == _hex(b._errors[name]), name
    assert list(a._models) == list(b._models)
    for name, ma in a._models.items():
        mb = b._models[name]
        assert type(ma) is type(mb)
        assert ma.y_.tobytes() == mb.y_.tobytes(), name
        if isinstance(ma, ARIMA):
            assert ma.const_.hex() == mb.const_.hex()
            assert ma.phi_.tobytes() == mb.phi_.tobytes()
            assert ma.theta_.tobytes() == mb.theta_.tobytes()
            assert ma.sigma2_.hex() == mb.sigma2_.hex()
            assert _hex(ma._w_tail) == _hex(mb._w_tail)
            assert _hex(ma._e_tail) == _hex(mb._e_tail)
            assert _hex(ma._heads) == _hex(mb._heads)
        assert ma.forecast(3).tobytes() == mb.forecast(3).tobytes(), name
    limit = a.max_history
    assert _window(a._history.values, limit).tobytes() == _window(
        b._history.values, limit
    ).tobytes()
    assert a.forecast(3).tobytes() == b.forecast(3).tobytes()
    if bank is not None:
        held = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
        for mine in _owned_arrays(a):
            assert not any(np.shares_memory(mine, arr) for arr in held)


def assert_scores(fleet, twins):
    """Each banked row's Eq. (14) scores are its twin's, bit for bit."""
    for a, b in zip(fleet, twins):
        if a._bank is None:
            continue
        scores = a._bank._scores()[a._row]
        for m, name in enumerate(b.names):
            window = np.asarray(b._errors[name])
            want = trailing_mse(window, window.shape[0] - 1, b.period) if window.size else 0.0
            assert scores[m].hex() == want.hex(), name


def _touch(a, b, how):
    if how == "best":
        assert a.best_model_name() == b.best_model_name()
    elif how == "forecast":
        assert a.forecast(3).tobytes() == b.forecast(3).tobytes()
    else:
        assert a.predict_one().hex() == b.predict_one().hex()


@common
@given(fleets())
def test_bank_fleet_equals_scalar_twins(spec):
    tuning, specs, ops = spec
    try:
        banked, twins = _build(tuning, specs), _build(tuning, specs)
    except ConvergenceError:
        return  # an ARIMA-only pool on a too short window: nothing to bank
    fed = [train for _, train, _ in specs]

    def observe(i):
        value = float(specs[i][2][fed[i]])
        fed[i] += 1
        banked[i].observe(value)
        twins[i].observe(value)

    for op in ops:
        if op[0] == "read":
            got = batch_predict_one(banked)
            want = [t.predict_one() for t in twins]
            assert _hex(got) == _hex(want)
            assert_scores(banked, twins)
        elif op[0] == "observe_all":
            for i in range(len(banked)):
                observe(i)
        elif op[0] == "observe":
            observe(op[1])
        else:
            _, i, how = op
            bank = banked[i]._bank
            _touch(banked[i], twins[i], how)
            assert banked[i]._bank is None
            if bank is not None:
                assert_twins(banked[i], twins[i])
    for a, b in zip(banked, twins):
        assert_twins(a, b)
