"""A refit wave is one stacked solve — and bitwise the per-model fits.

``warm_fit(models, windows)`` solves the plain ``ARIMA(1, d, 0)`` members
of a wave in one closed-form pass per ``(d, include_constant, length)``
group (``repro.forecast.batch.fit_stacked``) and hands every other model,
and every row the stacked solve does not accept, to the scalar ``fit``,
which stays the definition.  So a wave must equal ``[m.fit(w) for ...]``
bit for bit: every fitted field, the forecasting state, ``forecast(3)``
and the failure each model raised — on the rows the stacked solve must
hand back (constant, rank deficient, NaN, too short), on the rows it
solves at the stationarity wall, and in waves mixed with the models it
never stacks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ForecastError
from repro.forecast.arima import AR1_EDGE, ARIMA
from repro.forecast.base import REFIT_FAILURES, warm_fit
from repro.forecast.batch import _row_dot, fit_stacked
from repro.forecast.naive import NaiveLast
from repro.forecast.narnet import NARNET

common = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LENGTHS = (8, 12, 40, 97, 333)  # 8 is too short for every ARIMA(1, d, 0)
ROWS = ("noise",) * 4 + ("constant", "whisper", "flat_step", "jitter", "wall", "nan")
OTHERS = {
    "naive": NaiveLast,
    "narnet": lambda: NARNET(ni=2, nh=2, restarts=1, seed=3, maxiter=10),
    "arima111": lambda: ARIMA(1, 1, 1, maxiter=20),
    "arima210": lambda: ARIMA(2, 1, 0),
}


def _row(kind: str, d: int, n: int, seed: int) -> np.ndarray:
    """One window of *kind*, of length *n*, to be fitted with ``d``."""
    rng = np.random.default_rng(seed)
    if kind == "constant":  # deterministic after differencing: mean model
        return 0.3 + 0.01 * np.arange(n) ** min(d, 1)
    if kind == "whisper":  # differences within 1e-12 of zero: mean model too
        return np.cumsum(1e-14 * rng.standard_normal(n)) if d else 1e-14 * rng.standard_normal(n)
    if kind == "flat_step":  # rank deficient: flat until the last sample
        y = np.full(n, 0.4)
        y[-1] = 0.9
        return y
    if kind == "jitter":
        # rank deficient with a constant: differences 0.5 ± 2^-30 with a lag
        # column whose mean is exactly 0.5, so the centred column is below
        # 1e-6 of the raw one while w.std() is far above 1e-12 and the slope
        # is near 0 — only the rank check keeps this row out of the stack
        m = n - d
        sign = np.resize([1.0, 1.0, -1.0, -1.0], m)
        sign[4 * ((m - 1) // 4) :] = 0.0
        w = np.concatenate((np.full(d, 0.5), 0.5 + 2.0**-30 * sign))
    elif kind == "wall":  # the least-squares slope sits at or past ±1/1.001
        w = 0.01 * rng.choice([0.9995, 1.0005, 1.02, -1.0005, -1.02]) ** np.arange(n)
    else:
        w = np.empty(n)
        w[0] = rng.standard_normal()
        phi = rng.uniform(-0.8, 0.8)
        for t in range(1, n):
            w[t] = phi * w[t - 1] + rng.standard_normal()
        w = 0.5 + rng.choice([1e-3, 0.02, 1.0]) * w
    for _ in range(d):
        w = np.cumsum(w)
    if kind == "nan":
        w[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    return w


@st.composite
def waves(draw):
    """``(factories, windows)``: a mixed wave over one window matrix."""
    home = (draw(st.integers(0, 2)), draw(st.booleans()), draw(st.sampled_from(LENGTHS)))
    factories, specs = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("ar1",) * 8 + tuple(OTHERS)))
        if kind == "ar1" and draw(st.integers(0, 3)):  # mostly the home group
            d, const, n = home
        else:
            d, const, n = draw(st.integers(0, 2)), draw(st.booleans()), draw(st.sampled_from(LENGTHS))
        if kind == "ar1":
            factories.append(lambda d=d, const=const: ARIMA(1, d, 0, include_constant=const))
        else:
            factories.append(OTHERS[kind])
        specs.append((draw(st.sampled_from(ROWS)), d, n, draw(st.integers(0, 10**6))))
    # every window is a row view of one matrix, as the predictive manager's are
    matrix = np.zeros((len(specs), max(n for _, _, n, _ in specs)))
    windows = []
    for i, (row, d, n, seed) in enumerate(specs):
        matrix[i, :n] = _row(row, d, n, seed)
        windows.append(matrix[i, :n])
    return factories, windows, matrix


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _fitted_state(model) -> dict:
    state = {"y_": _bits(model.y_), "forecast": _bits(model.forecast(3))}
    if isinstance(model, ARIMA):
        state.update(
            const_=_bits(model.const_),
            phi_=_bits(model.phi_),
            theta_=_bits(model.theta_),
            sigma2_=_bits(model.sigma2_),
            w_tail=_bits(model._w_tail),
            e_tail=_bits(model._e_tail),
            heads=_bits(model._heads),
        )
    return state


def _owned_arrays(model) -> list:
    arrays = [model._series.buf]
    if isinstance(model, ARIMA):
        arrays += [model.phi_, model.theta_]
    return arrays


@common
@given(waves())
def test_a_wave_is_bitwise_the_per_model_fits(wave):
    factories, windows, matrix = wave
    models = [f() for f in factories]
    failures = warm_fit(models, windows)
    for factory, window, model, failure in zip(factories, windows, models, failures):
        oracle = factory()
        try:
            oracle.fit(window.copy())
        except REFIT_FAILURES as exc:
            assert type(failure) is type(exc) and str(failure) == str(exc)
            continue
        assert failure is None
        assert _fitted_state(model) == _fitted_state(oracle)
    fitted = [m for m, f in zip(models, failures) if f is None]
    owned = [_owned_arrays(m) for m in fitted]
    for k, arrays in enumerate(owned):
        for a in arrays:
            assert not np.shares_memory(a, matrix)
            for other in owned[k + 1 :]:
                assert not any(np.shares_memory(a, b) for b in other)


def _noise_wave(n_models=5, n=40, d=1):
    models = [ARIMA(1, d, 0) for _ in range(n_models)]
    windows = [_row("noise", d, n, seed) for seed in range(n_models)]
    return models, windows


class TestWhatTheStackedSolveTakes:
    def test_a_group_of_plain_ar1_rows_is_solved_stacked(self):
        models, windows = _noise_wave()
        assert fit_stacked(models, windows) == []
        assert all(m._fitted for m in models)

    @pytest.mark.parametrize(
        "row", ["constant", "whisper", "flat_step", "jitter", "nan"]
    )
    def test_rows_it_cannot_accept_are_left_to_the_scalar_fit(self, row):
        models, windows = _noise_wave()
        windows[2] = _row(row, 1, 40, 0)
        assert fit_stacked(models, windows) == [2]
        assert not models[2]._fitted

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("include_constant", [True, False])
    def test_wall_rows_are_solved_stacked_as_the_scalar_fit(
        self, d, include_constant, monkeypatch
    ):
        monkeypatch.setattr(
            ARIMA, "_minimize_css", lambda self, w: pytest.fail("the wall is closed form")
        )
        windows = [_row("wall", d, 40, seed) for seed in range(6)]
        windows[0] = _row("noise", d, 40, 0)
        models = [ARIMA(1, d, 0, include_constant=include_constant) for _ in windows]
        assert fit_stacked(models, windows) == []
        edges = 0
        for model, window in zip(models, windows):
            oracle = ARIMA(1, d, 0, include_constant=include_constant).fit(window)
            assert _fitted_state(model) == _fitted_state(oracle)
            edges += abs(model.phi_[0]) == AR1_EDGE
        assert edges >= 3, "the wall rows must reach the edge"

    def test_appending_to_one_model_touches_no_other_and_no_window(self):
        models, windows = _noise_wave()
        matrix = np.array(windows)
        caller = matrix.copy()
        # the windows are row views of the caller's one matrix
        assert warm_fit(models, list(matrix)) == [None] * len(models)
        for value in np.linspace(0.1, 0.9, 40):  # past the buffer's chunk too
            models[1].append(value)
            for k, model in enumerate(models):
                if k != 1:
                    assert model.y_.tobytes() == caller[k].tobytes()
            assert matrix.tobytes() == caller.tobytes()
        assert models[1].y_.shape == (80,)

    def test_groups_of_one_other_models_and_short_windows_go_scalar(self):
        models, windows = _noise_wave(3)
        models += [ARIMA(1, 1, 0), ARIMA(1, 1, 1), NaiveLast(), ARIMA(1, 1, 0), ARIMA(1, 1, 0)]
        windows += [_row("noise", 1, 41, 7), windows[0], windows[0], windows[0][:9], windows[0][:9]]
        assert fit_stacked(models, windows) == [3, 4, 5, 6, 7]

    def test_a_failing_row_does_not_stop_its_group(self):
        models, windows = _noise_wave()
        windows[1] = _row("nan", 1, 40, 0)
        failures = warm_fit(models, windows)
        assert isinstance(failures[1], ForecastError)
        assert [f is None for f in failures] == [True, False, True, True, True]

    def test_one_window_per_model(self):
        with pytest.raises(ForecastError, match="one window per model"):
            warm_fit([ARIMA(1, 1, 0)], [])


# a stacked row is at least 8 long (``ARIMA(1, d, 0)`` needs d + 9 samples);
# below that numpy's matmul may skip BLAS, and a zero's sign can differ
@pytest.mark.parametrize("length", [8, 9, 31, 64, 100, 139, 333, 1000])
def test_the_stacked_row_dot_is_np_dot(length):
    """The closed form's dot products must be bitwise ``np.dot``: a numpy or
    BLAS change that breaks this fails here, not in a decision digest."""
    rng = np.random.default_rng(length)
    w = 0.5 + np.cumsum(rng.standard_normal((6, length + 1)), axis=1)
    a, b = w[:, :-1], w[:, 1:]  # row views with a stride, as the kernel's are
    centred = a - a.mean(axis=1)[:, None]
    for x, y in ((a, a), (a, b), (centred, b), (centred, centred)):
        want = [np.dot(np.ascontiguousarray(x[i]), np.ascontiguousarray(y[i])) for i in range(6)]
        assert _bits(_row_dot(x, y)) == _bits(want)
