"""A stacked refit is one closed-form solve — and bitwise the per-row fits.

``repro.forecast.batch.StackedAR1`` fits every row of a window matrix as
``ARIMA(1, d, 0)`` with one ``_solve_ar1`` pass and hands only the rows the
pass refuses to ``scalar(i)``'s own ``fit``, which stays the definition.
So each row must equal ``ARIMA(1, d, 0).fit(row)`` bit for bit — the
constant, the slope and the innovation variance — or fail as it fails:
for ``d`` in {0, 1, 2}, with and without a constant, on rows the pass
solves (noise, the stationarity wall, rows that are deterministic after
differencing, which take the mean model) and on rows it must refuse (rank
deficient, NaN, too short).  ``warm_fit`` fits each model of a wave with
its own ``fit`` and hands back what each one raised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ForecastError
from repro.forecast.arima import AR1_EDGE, ARIMA
from repro.forecast.base import REFIT_FAILURES, warm_fit
from repro.forecast.batch import StackedAR1, _row_dot

common = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LENGTHS = (8, 12, 40, 97, 333)  # 8 is too short for every ARIMA(1, d, 0)
ROWS = ("noise",) * 4 + ("constant", "whisper", "flat_step", "jitter", "wall", "nan")
FLAT = ("constant", "whisper")  # deterministic after differencing


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


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _stacked(d, const, Y):
    """``StackedAR1(...).fit(Y)`` and the rows it handed to the scalar fit."""
    scalar = []

    def model(i):
        scalar.append(i)
        return ARIMA(1, d, 0, include_constant=const)

    return StackedAR1(model, d, const).fit(Y), scalar


def assert_rows_are_the_scalar_fits(fit, d, const, Y):
    """Row ``i`` of *fit* is ``ARIMA(1, d, 0).fit(Y[i])``, bit for bit."""
    for i, window in enumerate(Y):
        oracle = ARIMA(1, d, 0, include_constant=const)
        try:
            oracle.fit(window.copy())
        except REFIT_FAILURES as exc:
            assert not fit.ok[i], i
            failure = fit.failures[i]
            assert type(failure) is type(exc) and str(failure) == str(exc)
            continue
        assert fit.ok[i] and i not in fit.failures, i
        got = (fit.const[i], fit.phi[i], fit.sigma2[i])
        assert _bits(got) == _bits((oracle.const_, oracle.phi_[0], oracle.sigma2_)), i


@st.composite
def matrices(draw):
    """``(d, include_constant, kinds, Y)``: one window matrix of mixed rows."""
    d, const, n = draw(st.integers(0, 2)), draw(st.booleans()), draw(st.sampled_from(LENGTHS))
    kinds = draw(st.lists(st.sampled_from(ROWS), min_size=1, max_size=10))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=len(kinds), max_size=len(kinds)))
    Y = np.array([_row(kind, d, n, seed) for kind, seed in zip(kinds, seeds)])
    return d, const, kinds, Y


@common
@given(matrices())
def test_a_wave_is_bitwise_the_per_model_fits(matrix):
    d, const, kinds, Y = matrix
    caller = Y.copy()
    fit, scalar = _stacked(d, const, Y)
    assert_rows_are_the_scalar_fits(fit, d, const, Y)
    assert Y.tobytes() == caller.tobytes()
    if Y.shape[1] >= d + 9:  # long enough for the order: flat rows stay stacked
        assert not [i for i in scalar if kinds[i] in FLAT]


def _noise(rows=5, n=40, d=1):
    return np.array([_row("noise", d, n, seed) for seed in range(rows)])


class TestWhatTheStackedSolveTakes:
    def test_a_group_of_plain_ar1_rows_is_solved_stacked(self):
        Y = _noise()
        fit, scalar = _stacked(1, True, Y)
        assert scalar == [] and fit.ok.all() and fit.failures == {}
        assert_rows_are_the_scalar_fits(fit, 1, True, Y)

    @pytest.mark.parametrize("row", ["flat_step", "jitter", "nan"])
    def test_rows_it_cannot_accept_are_left_to_the_scalar_fit(self, row):
        Y = _noise()
        Y[2] = _row(row, 1, 40, 0)
        fit, scalar = _stacked(1, True, Y)
        assert scalar == [2]
        assert_rows_are_the_scalar_fits(fit, 1, True, Y)

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("include_constant", [True, False])
    def test_flat_rows_are_the_mean_model_with_no_scalar_fit(
        self, d, include_constant, monkeypatch
    ):
        """A wave of rows that are deterministic after differencing (an
        idle host's) fits no scalar model and still equals ``ARIMA.fit``."""
        Y = np.array(
            [_row(kind, d, 40, seed) for kind in FLAT for seed in range(3)]
            + [np.full(40, 0.0), np.full(40, 0.7)]
        )
        calls = []
        fit_scalar = ARIMA.fit

        def spy(self, y):
            calls.append(self)
            return fit_scalar(self, y)

        with monkeypatch.context() as m:
            m.setattr(ARIMA, "fit", spy)
            (failure,) = warm_fit([StackedAR1(lambda i: ARIMA(1, d, 0), d, include_constant)], [Y])
            fit, _ = _stacked(d, include_constant, Y)
        assert failure is None and calls == []
        assert fit.ok.all() and (fit.phi == 0.0).all() and (fit.sigma2 == 0.0).all()
        assert_rows_are_the_scalar_fits(fit, d, include_constant, Y)

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("include_constant", [True, False])
    def test_wall_rows_are_solved_stacked_as_the_scalar_fit(
        self, d, include_constant, monkeypatch
    ):
        monkeypatch.setattr(
            ARIMA, "_minimize_css", lambda self, w: pytest.fail("the wall is closed form")
        )
        Y = np.array([_row("noise", d, 40, 0)] + [_row("wall", d, 40, s) for s in range(1, 6)])
        fit, scalar = _stacked(d, include_constant, Y)
        assert scalar == []
        assert_rows_are_the_scalar_fits(fit, d, include_constant, Y)
        assert np.count_nonzero(np.abs(fit.phi) == AR1_EDGE) >= 3, "the wall rows must reach the edge"

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_short_windows_go_scalar(self, d):
        Y = _noise(3, d + 8, d)
        fit, scalar = _stacked(d, True, Y)
        assert scalar == [0, 1, 2] and not fit.ok.any()
        assert all(isinstance(fit.failures[i], ForecastError) for i in range(3))
        assert_rows_are_the_scalar_fits(fit, d, True, Y)
        fit, scalar = _stacked(d, True, _noise(3, d + 9, d))
        assert scalar == [] and fit.ok.all()

    def test_a_failing_row_does_not_stop_its_group(self):
        Y = _noise()
        Y[1] = _row("nan", 1, 40, 0)
        (failure,) = warm_fit([fit := StackedAR1(lambda i: ARIMA(1, 1, 0), 1, True)], [Y])
        assert failure is None
        assert list(fit.failures) == [1] and isinstance(fit.failures[1], ForecastError)
        assert fit.ok.tolist() == [True, False, True, True, True]

    def test_appending_to_one_model_touches_no_other_and_no_window(self):
        models = [ARIMA(1, 1, 0) for _ in range(5)]
        matrix = _noise()
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
