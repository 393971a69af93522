"""Dynamic model selection (Sec. IV-B, Eq. 14).

Sheriff never commits to a single model: it maintains a pool (e.g. two
ARIMA orders and two NARNET shapes), tracks each member's squared one-step
prediction errors, and at every step answers with the member whose
trailing mean squared error over the window ``T_p`` is smallest.

:class:`DynamicModelSelector` is the *live* object a per-VM monitor embeds
(predict → observe → predict ...).  :func:`rolling_one_step` is the offline
evaluation harness the Figs. 6–8 benchmarks use for single models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Container, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, ForecastError
from repro.forecast.base import Forecaster, PredictionInterval, _finite, _Series, warm_fit
from repro.forecast.metrics import trailing_mse
from repro.obs.events import ModelSelected
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "DynamicModelSelector",
    "batch_predict_one",
    "rolling_one_step",
    "SelectionTrace",
]

ForecasterFactory = Callable[[], Forecaster]


def _pin_stream(model: Forecaster) -> None:
    """Pin a member's shared RNG stream before it fits.

    A model seeded with a *shared* :class:`numpy.random.Generator` draws
    from that stream during ``fit``, so what one member draws would depend
    on how much the members before it consumed.  Splitting off a child
    substream here, in pool order, makes each member's draws a function of
    (seed, position in the pool) alone; integer/None seeds are already
    independent and are left untouched.
    """
    seed = getattr(model, "seed", None)
    if isinstance(seed, np.random.Generator):
        model.seed = seed.spawn(1)[0]


def rolling_one_step(
    factory: ForecasterFactory,
    y: np.ndarray,
    train_len: int,
    *,
    refit_every: int = 50,
    max_history: Optional[int] = None,
) -> np.ndarray:
    """Walk-forward one-step predictions of ``y[train_len:]``.

    At each step ``t >= train_len`` the model (fit on data up to ``t``)
    predicts ``y[t]``; the true value is then appended.  The model refits
    every *refit_every* steps, optionally on only the last *max_history*
    observations (a monitor's bounded memory); each refit is a fresh
    ``factory()`` fitted on its window alone.
    """
    arr = np.asarray(y, dtype=np.float64).ravel()
    n = arr.shape[0]
    if not (0 < train_len < n):
        raise ForecastError(f"train_len must be in 1..{n - 1}, got {train_len}")
    if refit_every < 1:
        raise ForecastError(f"refit_every must be >= 1, got {refit_every}")
    model = factory()
    model.fit(_window(arr[:train_len], max_history))
    preds = np.empty(n - train_len)
    since_fit = 0
    for k, t in enumerate(range(train_len, n)):
        if since_fit >= refit_every:
            model = factory()
            (failure,) = warm_fit([model], [_window(arr[:t], max_history)])
            if failure is not None:
                raise failure
            since_fit = 0
        preds[k] = model.predict_one()
        model.append(arr[t])
        since_fit += 1
    return preds


def _window(arr: np.ndarray, max_history: Optional[int]) -> np.ndarray:
    if max_history is not None and arr.shape[0] > max_history:
        return arr[-max_history:]
    return arr


@dataclass
class SelectionTrace:
    """Per-step record of what the selector did (offline analysis).

    ``per_model_predictions`` carries ``np.nan`` at steps where a member
    failed to predict; ``failed`` flags exactly those steps so downstream
    scoring can mask them instead of silently propagating NaN into
    :func:`~repro.forecast.metrics.mse`.
    """

    chosen: List[str]
    predictions: np.ndarray
    per_model_predictions: Dict[str, np.ndarray]
    failed: Dict[str, np.ndarray] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.failed is None:
            self.failed = {
                name: ~np.isfinite(pred)
                for name, pred in self.per_model_predictions.items()
            }

    def model_mse(self, name: str, actual: np.ndarray) -> float:
        """A member's MSE against *actual*, failed steps masked out.

        Raises :class:`~repro.errors.ForecastError` when the member never
        produced a prediction, rather than returning NaN.
        """
        from repro.forecast.metrics import mse

        a = np.asarray(actual, dtype=np.float64).ravel()
        pred = self.per_model_predictions[name]
        ok = ~self.failed[name]
        if not ok.any():
            raise ForecastError(
                f"model {name!r} failed every step; no MSE is defined"
            )
        return mse(a[ok], pred[ok])


class DynamicModelSelector:
    """Live minimum-trailing-MSE model selector.

    Refit failure policy: a member whose periodic refit raises is dropped
    from the pool until the next refit period (the survivors keep
    answering; nothing counts as a fallback, the member did not fail to
    *predict*), and :meth:`observe` raises only when every member failed.
    :class:`~repro.sim.reactive.PredictiveManager`, which runs one model
    per host and has no survivors to answer, keeps the outgoing model
    instead.

    Parameters
    ----------
    factories:
        Ordered mapping name → zero-arg constructor of an (unfitted)
        :class:`Forecaster`.  The paper's example pool is two ARIMA and two
        NARNET configurations.
    period:
        The fitness window ``T_p`` of Eq. (14).
    refit_every:
        Full refits happen every this many observed values.
    max_history:
        Bound on the history length used at refit — and on what the
        selector stores: older samples have no reader and are dropped
        (None = unbounded).
    tracer:
        Optional event sink; each :meth:`predict_one` emits a
        :class:`~repro.obs.events.ModelSelected` naming the answering
        pool member (Eq. 14 in action).
    metrics:
        Optional registry; :meth:`observe` keeps the per-member
        ``sheriff_forecast_trailing_mse{model=...}`` gauges current, and
        best-member prediction failures count in
        ``sheriff_selector_fallback_total``.
    confidence:
        Confidence-aware arbitration (off by default; when off, behaviour
        is byte-identical to the historical selector).  The Eq. (14)
        winner still answers, but its ``1 - interval_alpha`` prediction
        interval is consulted: when the interval width spikes above
        ``width_spike`` times the trailing median width, the answer widens
        to the interval's *upper* bound — the conservative side for
        overload pre-alerting (assume the worst while the model distrusts
        itself).  Members without interval support answer with their point
        forecast unchanged.
    interval_alpha:
        Interval level used by the confidence mode (band covers
        ``1 - interval_alpha``).
    width_spike:
        Spike factor on the trailing median interval width that triggers
        conservative widening.
    """

    def __init__(
        self,
        factories: Dict[str, ForecasterFactory],
        *,
        period: int = 20,
        refit_every: int = 50,
        max_history: Optional[int] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        confidence: bool = False,
        interval_alpha: float = 0.2,
        width_spike: float = 2.0,
    ) -> None:
        if not factories:
            raise ForecastError("selector needs at least one model factory")
        if period < 1:
            raise ForecastError(f"period must be >= 1, got {period}")
        if refit_every < 1:
            raise ForecastError(f"refit_every must be >= 1, got {refit_every}")
        if not (0.0 < interval_alpha < 1.0):
            raise ForecastError(
                f"interval_alpha must be in (0, 1), got {interval_alpha}"
            )
        if width_spike <= 1.0:
            raise ForecastError(
                f"width_spike must be > 1, got {width_spike}"
            )
        self.factories = dict(factories)
        self.period = period
        self.refit_every = refit_every
        self.max_history = max_history
        self.names = list(factories.keys())
        self.tracer = tracer
        self.metrics = metrics
        self.confidence = confidence
        self.interval_alpha = interval_alpha
        self.width_spike = width_spike
        self._step = 0
        self._models: Dict[str, Forecaster] = {}
        # errors older than the fitness window T_p can never influence
        # Eq. (14): the bounded deques are the window itself
        self._errors: Dict[str, Deque[float]] = {
            n: deque(maxlen=period) for n in self.names
        }
        # running Σerr² per member, maintained incrementally alongside the
        # deques so the trailing-MSE gauges cost O(pool), not O(pool·period)
        self._sq_sums: Dict[str, float] = {n: 0.0 for n in self.names}
        self._last_pred: Dict[str, float] = {}
        self._last_best: Optional[str] = None
        self.last_interval: Optional[PredictionInterval] = None
        self._width_hist: Deque[float] = deque(maxlen=max(4, period))
        self._history: Optional[_Series] = None
        self._since_fit = 0
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, y: np.ndarray) -> "DynamicModelSelector":
        """Fit every pool member on the training series."""
        self._history = _Series(y, self.max_history)
        self._refit_all()
        self._errors = {n: deque(maxlen=self.period) for n in self.names}
        self._sq_sums = {n: 0.0 for n in self.names}
        self._last_pred = {}
        self._last_best = None
        self.last_interval = None
        self._width_hist.clear()
        self._since_fit = 0
        self._fitted = True
        return self

    def _refit_all(self) -> None:
        """Refit the whole pool as one wave on the current window."""
        assert self._history is not None
        models = [self.factories[name]() for name in self.names]
        for model in models:
            _pin_stream(model)
        window = _window(self._history.values, self.max_history)
        results = warm_fit(models, [window] * len(models))
        # pool order in the mapping — predict_one fallback and repr
        # stability rely on it
        kept: Dict[str, Forecaster] = {}
        failures = []
        for name, model, exc in zip(self.names, models, results):
            if exc is None:
                kept[name] = model
            elif isinstance(exc, ForecastError):
                failures.append((name, exc))
            else:
                raise exc  # outside the policy
        if not kept:
            raise ConvergenceError(f"every pool member failed to fit: {failures}")
        self._models = kept

    # ------------------------------------------------------------------ #
    def _min_trailing_mse(self, candidates: Container[str]) -> str:
        """Eq. (14) over the pool members in *candidates*: minimum
        ``MSE_f(t, T_p)``, pool order, strict ``<`` (ties → first)."""
        best_name = None
        best_score = np.inf
        for name in self.names:
            if name not in candidates:
                continue
            errs = self._errors[name]
            if not errs:
                score = 0.0  # no evidence against it yet
            else:
                e = np.asarray(errs)
                score = trailing_mse(e, e.shape[0] - 1, self.period)
            if score < best_score:
                best_score = score
                best_name = name
        assert best_name is not None
        return best_name

    def best_model_name(self) -> str:
        """Pool member with minimum ``MSE_f(t, T_p)`` (ties → pool order)."""
        self._require_fitted()
        return self._min_trailing_mse(self._models)

    def _fallback_best(self) -> str:
        """Best member *among those that predicted* (Eq. 14 on the rest).

        Used when the Eq. (14) winner failed to produce a prediction: the
        answer comes from the lowest-trailing-MSE member that did predict
        (ties → pool order), not from ``_last_pred`` insertion order.
        Counted in ``sheriff_selector_fallback_total``.
        """
        best_name = self._min_trailing_mse(self._last_pred)
        if self.metrics is not None:
            self.metrics.counter(
                "sheriff_selector_fallback_total", model=best_name
            ).inc()
        return best_name

    def _answer(self, best: str) -> float:
        """Finalize one prediction step: confidence widening + event."""
        pred = self._last_pred[best]
        self._last_best = best
        if self.confidence:
            pred = self._confident_answer(best, pred)
        if self.tracer.enabled:
            self.tracer.emit(
                ModelSelected(model=best, step=self._step, prediction=float(pred))
            )
        return pred

    def _confident_answer(self, best: str, pred: float) -> float:
        """Widen toward the conservative side on an interval-width spike."""
        interval = None
        model = self._models.get(best)
        if model is not None and getattr(model, "supports_intervals", False):
            try:
                interval = model.predict_one_interval(self.interval_alpha)
            except ForecastError:
                interval = None
        self.last_interval = interval
        if interval is None:
            return pred
        width = interval.width
        widened = False
        if len(self._width_hist) >= 4:
            median = float(np.median(self._width_hist))
            if median > 0.0 and width > self.width_spike * median:
                # the model stopped trusting itself: answer the upper
                # bound, the conservative side for overload pre-alerting
                pred = interval.upper
                widened = True
        self._width_hist.append(width)
        if widened and self.metrics is not None:
            self.metrics.counter(
                "sheriff_confidence_widened_total", model=best
            ).inc()
        return pred

    def last_answer_interval(
        self, alpha: Optional[float] = None
    ) -> Optional[PredictionInterval]:
        """Interval from the member that answered the last prediction.

        ``None`` when no prediction has been made yet, the answering
        member does not support intervals, or its band computation failed
        — callers degrade to the point forecast.
        """
        if self._last_best is None:
            return None
        model = self._models.get(self._last_best)
        if model is None or not getattr(model, "supports_intervals", False):
            return None
        try:
            return model.predict_one_interval(
                self.interval_alpha if alpha is None else alpha
            )
        except ForecastError:
            return None

    def predict_one(self) -> float:
        """One-step forecast from the currently best model.

        Also caches every member's one-step prediction so that
        :meth:`observe` can score the whole pool against the realized value.
        """
        self._require_fitted()
        self._last_pred = {}
        for name, model in self._models.items():
            try:
                self._last_pred[name] = model.predict_one()
            except ForecastError:
                continue
        if not self._last_pred:
            raise ForecastError("no pool member could produce a prediction")
        best = self.best_model_name()
        if best not in self._last_pred:
            best = self._fallback_best()
        return self._answer(best)

    def forecast(self, h: int = 1) -> np.ndarray:
        """h-step forecast from the currently best model."""
        self._require_fitted()
        best = self.best_model_name()
        return self._models[best].forecast(h)

    def observe(self, value: float) -> None:
        """Feed the realized value: score the pool, advance, maybe refit."""
        self._require_fitted()
        value = _finite(value, "observed")
        for name, pred in self._last_pred.items():
            dq = self._errors[name]
            err = value - pred
            if len(dq) == dq.maxlen:
                evicted = dq[0]
                self._sq_sums[name] -= evicted * evicted
            dq.append(err)
            self._sq_sums[name] += err * err
        for model in self._models.values():
            model.append(value)
        self._history.append(value)
        self._step += 1
        self._since_fit += 1
        if self.metrics is not None:
            # the incremental Σerr² makes the gauge O(pool) per step
            # instead of O(pool·period); Eq. (14) arbitration still reads
            # the deques directly, so selection numerics are untouched
            for name in self.names:
                dq = self._errors[name]
                if not dq:
                    continue
                self.metrics.gauge(
                    "sheriff_forecast_trailing_mse", model=name
                ).set(max(self._sq_sums[name], 0.0) / len(dq))
        if self._since_fit >= self.refit_every:
            self._refit_all()
            self._since_fit = 0

    # ------------------------------------------------------------------ #
    def run(self, y: np.ndarray, train_len: int) -> SelectionTrace:
        """Offline walk-forward over ``y`` (Figs. 6–8 harness).

        Fits on ``y[:train_len]`` then predicts/observes each subsequent
        point, recording which member answered.
        """
        arr = np.asarray(y, dtype=np.float64).ravel()
        n = arr.shape[0]
        if not (0 < train_len < n):
            raise ForecastError(f"train_len must be in 1..{n - 1}, got {train_len}")
        self.fit(arr[:train_len])
        m = n - train_len
        preds = np.empty(m)
        chosen: List[str] = []
        per_model: Dict[str, List[float]] = {name: [] for name in self.names}
        failed: Dict[str, List[bool]] = {name: [] for name in self.names}
        for k, t in enumerate(range(train_len, n)):
            p = self.predict_one()
            preds[k] = p
            assert self._last_best is not None
            chosen.append(self._last_best)
            for name in self.names:
                per_model[name].append(self._last_pred.get(name, np.nan))
                failed[name].append(name not in self._last_pred)
            self.observe(arr[t])
        return SelectionTrace(
            chosen=chosen,
            predictions=preds,
            per_model_predictions={n: np.asarray(v) for n, v in per_model.items()},
            failed={n: np.asarray(v, dtype=bool) for n, v in failed.items()},
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ForecastError("DynamicModelSelector is not fitted")


def _batch_best_names(
    sels: Sequence[DynamicModelSelector],
) -> List[Optional[str]]:
    """Vectorized Eq. (14) arbitration for a fleet of selectors.

    Returns each selector's ``best_model_name()`` where the rectangular
    fast path applies, ``None`` where it does not (the caller falls back
    to the scalar method).  The fast path buckets selectors by (member
    tuple, error-window length); within a bucket every member's error
    deque has the same length ``L``, so one ``(members, L)`` matrix and a
    single ``mean(E*E, axis=1)`` reproduce :func:`trailing_mse` for every
    member at once — ``t = L - 1`` and ``maxlen = period`` make the
    trailing window the *whole* deque — and ``argmin``'s first-minimum
    rule is exactly the scalar loop's strict ``<`` pool-order tie-break.
    ``L = 0`` means every score is the no-evidence 0.0 and the first
    member wins, no arithmetic needed.
    """
    out: List[Optional[str]] = [None] * len(sels)
    buckets: Dict[Tuple[Tuple[str, ...], int], List[int]] = {}
    for i, s in enumerate(sels):
        names = tuple(s._models)
        win_len = len(s._errors[names[0]])
        for n in names:
            if len(s._errors[n]) != win_len:
                break  # ragged windows — scalar fallback scores these
        else:
            buckets.setdefault((names, win_len), []).append(i)
    for (names, win_len), idxs in buckets.items():
        if win_len == 0:
            for i in idxs:
                out[i] = names[0]
            continue
        windows = chain.from_iterable(sels[i]._errors[n] for i in idxs for n in names)
        count = len(idxs) * len(names) * win_len
        e = np.fromiter(windows, np.float64, count).reshape(-1, win_len)
        scores = np.mean(e * e, axis=1).reshape(len(idxs), len(names))
        for i, best in zip(idxs, np.argmin(scores, axis=1).tolist()):
            out[i] = names[best]
    return out


def batch_predict_one(selectors: Sequence[DynamicModelSelector]) -> List[float]:
    """``[s.predict_one() for s in selectors]`` with batched member kernels.

    The fleet hot path: one walk over the selectors groups their members
    (:func:`~repro.forecast.batch.group_fleet`), the fitted plain-ARIMA
    members (across *all* selectors) are forecast in stacked per-order
    groups and the NaiveLast members answered with one gather, then each
    selector's Eq. (14) bookkeeping — the ``_last_pred`` cache ``observe``
    scores, the best-model choice (vectorized across the fleet via
    :func:`_batch_best_names`), the ``ModelSelected`` event — runs
    exactly as in the scalar method.  Returns and side effects are
    byte-identical to the scalar loop; only the per-member call overhead
    is amortized.  Selectors running in the confidence-aware mode
    (``confidence=True``) answer through the scalar
    :meth:`DynamicModelSelector.predict_one` — their interval lookups and
    widening decisions are inherently per-selector — so a mixed fleet
    stays consistent with the scalar loop member by member.
    """
    from repro.forecast.batch import _forecast_group, group_fleet

    sels = list(selectors)
    out: List[Optional[float]] = [None] * len(sels)
    plain: List[int] = []
    for i, s in enumerate(sels):
        if s.confidence:
            out[i] = s.predict_one()
        else:
            s._require_fitted()
            plain.append(i)
    fleet = [sels[i] for i in plain]
    groups, naive, scalar = group_fleet(
        chain.from_iterable(s._models.values() for s in fleet)
    )
    preds: List[Optional[float]] = [None] * sum(len(s._models) for s in fleet)
    for (p, d, q), (idxs, members) in groups.items():
        col = _forecast_group(members, p, d, q, 1)[:, 0].tolist()
        for i, pred in zip(idxs, col):
            preds[i] = pred
    for i, model in zip(*naive):
        preds[i] = model.y_.item(-1)
    for i, model in zip(*scalar):
        try:
            preds[i] = model.predict_one()
        except ForecastError:
            continue
    flat = iter(preds)
    for s in fleet:  # zip stops with the names: each selector takes its own
        s._last_pred = {n: p for n, p in zip(s._models, flat) if p is not None}
    bests = _batch_best_names(fleet)
    for i, s, fast_best in zip(plain, fleet, bests):
        if not s._last_pred:
            raise ForecastError("no pool member could produce a prediction")
        best = fast_best if fast_best is not None else s.best_model_name()
        if best not in s._last_pred:
            best = s._fallback_best()
        out[i] = s._answer(best)
    return out  # type: ignore[return-value]
