"""The pure-AR closed form against the iterative CSS path it replaced.

For ``q = 0`` the CSS objective is linear least squares, and ``ARIMA.fit``
takes the exact minimiser whenever it can be accepted.  For one lag that
includes a least-squares slope at or past the stationarity wall: the
walled minimum is then the feasible edge, also in closed form.  The L-BFGS
path (``ARIMA._minimize_css``) is the reference: the closed form must
never have a larger SSE, the other boundary cases must still reach it and
end feasible, and ``q >= 1`` fits — which only ever run it — must be
bit-for-bit what they were before the closed form existed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.forecast import arima as arima_mod
from repro.forecast.arima import AR1_EDGE, ARIMA, _ROOT_MARGIN, _css_residuals, _max_inverse_root
from repro.forecast.base import warm_fit
from repro.forecast.lag import difference

common = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# float64 rounding in two different summation orders, not optimizer slack
SSE_RTOL = 1e-9


@pytest.fixture
def iterative_calls(monkeypatch):
    """Counts entries into the L-BFGS path."""
    calls = []
    original = ARIMA._minimize_css

    def spy(self, w):
        calls.append(w.shape[0])
        return original(self, w)

    monkeypatch.setattr(ARIMA, "_minimize_css", spy)
    return calls


def _ar_case(p, d, include_constant, roots, n, seed, scale, mean):
    """The AR(p) series with inverse roots *roots*, integrated ``d`` times."""
    poly = np.array([1.0])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    phi = -poly[1:]
    rng = np.random.default_rng(seed)
    e = scale * rng.standard_normal(n + 50)
    w = np.zeros(n + 50)
    for t in range(p, n + 50):
        w[t] = e[t] + sum(phi[i] * w[t - 1 - i] for i in range(p))
    w = w[50:] + mean
    y = np.cumsum(w) if d else w
    return y, p, d, include_constant, scale


@st.composite
def ar_series(draw):
    """A stationary AR(p) draw, integrated ``d`` times, with its orders."""
    p = draw(st.integers(1, 3))
    d = draw(st.integers(0, 1))
    include_constant = draw(st.booleans())
    roots = [draw(st.floats(-0.8, 0.8)) for _ in range(p)]
    n = draw(st.integers(40, 200))
    seed = draw(st.integers(0, 10**6))
    scale = draw(st.sampled_from([1e-3, 0.02, 1.0]))
    mean = draw(st.sampled_from([0.0, 0.01, 0.5])) if include_constant else 0.0
    return _ar_case(p, d, include_constant, roots, n, seed, scale, mean)


@common
@given(ar_series())
# three roots near 0.8: the L-BFGS reference stops 5.3e-3 (0.32 %) from the
# exact phi = [2.23, -1.65, 0.39] while the SSE inequality holds
@example(_ar_case(3, 1, True, [0.75, 0.75, 0.75], 110, 0, 0.02, 0.0))
def test_closed_form_never_worse_than_iterative(case):
    y, p, d, include_constant, scale = case
    model = ARIMA(p, d, 0, include_constant=include_constant)
    w = difference(y, d)
    solved = model._solve_pure_ar(w)
    assert solved is not None, "a well-conditioned stationary draw must be accepted"
    c, phi, theta, e = solved
    c_it, phi_it, _, e_it = ARIMA(
        p, d, 0, include_constant=include_constant
    )._minimize_css(w)
    sse, sse_it = float(e @ e), float(e_it @ e_it)
    assert sse <= sse_it * (1.0 + SSE_RTOL)
    if scale >= 0.02:
        # L-BFGS stops on an absolute gradient tolerance: on a fainter
        # series its answer is only as good as its start, and the SSE
        # inequality above is all that can be asked of it
        np.testing.assert_allclose(phi, phi_it, rtol=5e-3, atol=5e-3)
        assert abs(c - c_it) <= 5e-3 * max(1.0, float(np.abs(w).max()))
    # fit() installs exactly this solution
    model.fit(y)
    assert model.const_ == c
    np.testing.assert_array_equal(model.phi_, phi)
    assert model.theta_.shape == (0,)
    assert model.sigma2_ == sse / e.shape[0]
    np.testing.assert_array_equal(model.residuals(), e)


@common
@given(ar_series())
# 40 samples of three roots at 0.8 fit as explosive: the closed form is
# rejected at the wall and L-BFGS takes over
@example(_ar_case(3, 0, False, [0.8, 0.8, 0.8], 40, 50, 1e-3, 0.0))
def test_warm_fit_is_bitwise_cold_fit_for_pure_ar(case):
    """A pure-AR refit ends feasible whichever path produced it — also a
    fit rejected at the ``1/_ROOT_MARGIN`` wall and left to L-BFGS."""
    y, p, d, include_constant, _ = case
    model = ARIMA(p, d, 0, include_constant=include_constant)
    assert warm_fit([model], [y]) == [None]
    assert _max_inverse_root(model.phi_, "ar") < 1.0
    assert np.isfinite(model.forecast(4)).all()


def test_closed_form_does_not_enter_the_optimizer(iterative_calls):
    rng = np.random.default_rng(1)
    y = 0.5 + np.cumsum(0.01 * rng.standard_normal(80))
    ARIMA(1, 1, 0, maxiter=40).fit(y)
    ARIMA(3, 0, 0, include_constant=False).fit(np.diff(y))
    assert iterative_calls == []
    ARIMA(1, 1, 1).fit(y)
    ARIMA(0, 1, 1).fit(y)
    assert len(iterative_calls) == 2


def _walled_sse(w, include_constant, phi):
    """The CSS of AR(1) coefficient *phi* on *w*, with ``c`` re-solved for it."""
    n = w.shape[0] - 1
    c = float(w[1:].sum()) / n - phi * (float(w[:-1].sum()) / n) if include_constant else 0.0
    e = _css_residuals(w, c, np.array([phi]), np.zeros(0))
    return float(e @ e)


def _growth_series(growth, n=60, seed=3):
    """``w_t = growth * w_{t-1}``, plus a whisper of noise: the least-squares
    slope is the growth rate to ~1e-6."""
    rng = np.random.default_rng(seed)
    return 0.01 * growth ** np.arange(n) * (1.0 + 1e-7 * rng.standard_normal(n))


class TestTheWallIsClosedForm:
    """An AR(1) slope at or past ``1/_ROOT_MARGIN`` takes the feasible edge."""

    @pytest.mark.parametrize("growth", [0.9995, 1.0005, 1.02, -1.0005])
    @pytest.mark.parametrize("include_constant", [True, False])
    def test_root_on_or_outside_the_wall_takes_the_edge(
        self, growth, include_constant, iterative_calls
    ):
        w = _growth_series(growth)
        solved = arima_mod._ar_least_squares(w, 1, include_constant)
        assert solved is not None and abs(solved[1][0]) >= 1.0 / _ROOT_MARGIN
        model = ARIMA(1, 0, 0, include_constant=include_constant).fit(w)
        assert iterative_calls == []
        assert abs(model.phi_[0]) < 1.0 / _ROOT_MARGIN
        assert model.phi_[0] == np.copysign(AR1_EDGE, growth)
        assert np.isfinite(model.forecast(3)).all()
        # the L-BFGS answer on the same window, the reference, is no better
        e = model.residuals()
        _, phi_it, _, e_it = ARIMA(
            1, 0, 0, include_constant=include_constant
        )._minimize_css(w)
        assert abs(phi_it[0]) < 1.0
        assert float(e @ e) <= float(e_it @ e_it) * (1.0 + SSE_RTOL)
        assert model.sigma2_ == float(e @ e) / e.shape[0]

    @common
    @given(
        growth=st.sampled_from([0.999, 0.9995, 1.0, 1.0005, 1.02, 1.1]),
        sign=st.sampled_from([1.0, -1.0]),
        d=st.integers(0, 1),
        include_constant=st.booleans(),
        n=st.integers(12, 150),
        seed=st.integers(0, 10**6),
        noise=st.sampled_from([0.0, 1e-7, 1e-4]),
    )
    def test_the_edge_is_the_walled_minimum(
        self, growth, sign, d, include_constant, n, seed, noise
    ):
        """No coefficient inside the wall, with ``c`` re-solved for it, has a
        smaller SSE than the one ``fit`` takes — and with a full-rank lag
        design ``fit`` never runs L-BFGS to find it."""
        w = _growth_series(sign * growth, n, seed)
        w = w + noise * np.random.default_rng(seed + 1).standard_normal(n)
        y = np.cumsum(w) if d else w
        w = difference(y, d)
        # a flat w is rank deficient with a constant: left to L-BFGS
        assume(arima_mod._ar_least_squares(w, 1, include_constant) is not None)
        assume(w.std() >= 1e-12)  # not the mean model
        calls = []
        model = ARIMA(1, d, 0, include_constant=include_constant)
        original = ARIMA._minimize_css
        try:
            ARIMA._minimize_css = lambda self, w: calls.append(w) or original(self, w)
            model.fit(y)
        finally:
            ARIMA._minimize_css = original
        assert calls == []
        phi = float(model.phi_[0])
        assert abs(phi) < 1.0 / _ROOT_MARGIN
        sse = _walled_sse(w, include_constant, phi)
        assert model.sigma2_ == sse / (w.shape[0] - 1)
        for other in np.linspace(-AR1_EDGE, AR1_EDGE, 41):
            assert sse <= _walled_sse(w, include_constant, other) * (1.0 + SSE_RTOL)


class TestBoundaryTakesIterativePath:
    @pytest.mark.parametrize("p", [1, 2])
    def test_rank_deficient_lag_column(self, p, iterative_calls):
        # a flat history that steps on its very last sample: every lag
        # column is constant, collinear with the intercept
        y = np.full(30, 0.4)
        y[-1] = 0.9
        assert arima_mod._ar_least_squares(y, p, True) is None
        model = ARIMA(p, 0, 0).fit(y)
        assert len(iterative_calls) == 1
        assert _max_inverse_root(model.phi_, "ar") < 1.0
        assert np.isfinite(model.const_) and np.isfinite(model.forecast(2)).all()

    def test_all_zero_lag_column_without_constant(self, iterative_calls):
        w = np.zeros(30)
        w[-1] = 0.3
        assert arima_mod._ar_least_squares(w, 1, False) is None
        model = ARIMA(1, 0, 0, include_constant=False).fit(w)
        assert len(iterative_calls) == 1
        assert np.isfinite(model.forecast(2)).all()

    def test_nonfinite_sse_still_raises_convergence_error(self, iterative_calls):
        rng = np.random.default_rng(5)
        y = 1e200 * rng.standard_normal(40)
        with pytest.raises(ConvergenceError):
            ARIMA(1, 0, 0).fit(y)
        assert len(iterative_calls) == 1

    def test_constant_series_keeps_the_mean_model(self, iterative_calls):
        model = ARIMA(1, 1, 0).fit(np.linspace(0.1, 0.9, 40))
        assert iterative_calls == []
        np.testing.assert_array_equal(model.phi_, np.zeros(1))
        assert model.sigma2_ == 0.0
        assert model.const_ == pytest.approx(0.8 / 39)


def _pinned_series(seed, n=120):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        0.5
        + 0.2 * np.sin(2 * np.pi * t / 24)
        + np.cumsum(0.01 * rng.standard_normal(n))
    )


# (order, seed) -> (c, phi, theta) and sigma2 of a fit; recorded at the commit
# before ARIMA.fit gained the closed form
PINNED_MA_FITS = {
    ((1, 1, 1), 3): (
        ["-0x1.fd19efe729214p-15", "0x1.c90618ff7149dp-1", "-0x1.c3c6570476eedp-6"],
        "0x1.52687ce2d2adfp-12",
    ),
    ((1, 1, 1), 4): (
        ["-0x1.169d5fec89b10p-12", "0x1.cbc9c28a3b15ap-1", "-0x1.2fd8460edb065p-4"],
        "0x1.33e2e97a7576cp-12",
    ),
    ((2, 1, 2), 3): (
        [
            "-0x1.6ea3215ee422ep-13", "0x1.e47bc6843b422p+0",
            "-0x1.ef1d17f9f5c73p-1", "-0x1.5bb0432feb1e8p+0",
            "0x1.1e5b4641735c6p-1",
        ],
        "0x1.d1a05b90c7093p-13",
    ),
    ((2, 1, 2), 5): (
        [
            "-0x1.5519342cf7bf1p-13", "0x1.ed641f4b1cd3cp+0",
            "-0x1.fef3e3033c3e3p-1", "-0x1.8f9742cfd6750p+0",
            "0x1.4c154d80b55e7p-1",
        ],
        "0x1.ccc922765ad9cp-14",
    ),
    ((0, 1, 1), 6): (
        ["0x1.befd13c3d963cp-15", "0x1.47206f08a596bp-1"],
        "0x1.7cc6f23889877p-11",
    ),
    ((2, 0, 1), 7): (
        [
            "0x1.635d6c1a3e99fp-6", "0x1.ebcb5a9d4ff51p+0",
            "-0x1.f58057befcb4ep-1", "-0x1.ac7dbc3041a42p-2",
        ],
        "0x1.f5bd0a118f9b5p-14",
    ),
}


@pytest.mark.parametrize("order,seed", sorted(PINNED_MA_FITS))
def test_ma_fits_are_bit_identical_to_before(order, seed):
    params_hex, sigma2_hex = PINNED_MA_FITS[(order, seed)]
    model = ARIMA(*order).fit(_pinned_series(seed))
    packed = [model.const_, *model.phi_, *model.theta_]
    assert [float(x).hex() for x in packed] == params_hex
    assert float(model.sigma2_).hex() == sigma2_hex
