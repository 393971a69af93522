"""Dynamic model selection (Sec. IV-B, Eq. 14).

Sheriff never commits to a single model: it maintains a pool (e.g. two
ARIMA orders and two NARNET shapes), tracks each member's squared one-step
prediction errors, and at every step answers with the member whose
trailing mean squared error over the window ``T_p`` is smallest.

:class:`DynamicModelSelector` is the *live* object a per-VM monitor embeds
(predict → observe → predict ...).  :func:`rolling_one_step` is the offline
evaluation harness the Figs. 6–8 benchmarks use for single models.
:class:`SelectorBank` holds a fleet of plain selectors as arrays, and
:func:`batch_predict_one` is the fleet read that fills and reuses it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Container, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.base import Forecaster, _finite, _Series, warm_fit
from repro.forecast.batch import StackedAR1
from repro.forecast.metrics import trailing_mse
from repro.forecast.naive import NaiveLast
from repro.obs.events import ModelSelected
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "DynamicModelSelector",
    "SelectorBank",
    "batch_predict_one",
    "rolling_one_step",
    "SelectionTrace",
]

ForecasterFactory = Callable[[], Forecaster]
MemberKind = Optional[Tuple[str, int, bool]]


def _bank_kind(model: Forecaster) -> MemberKind:
    """A pool member's column kind in a :class:`SelectorBank`, or None.

    Exact-type gates (a subclass may override ``fit``): ``("arima", d,
    include_constant)`` for a plain ``ARIMA(1, d, 0)``, whose refit the
    bank solves as a :class:`~repro.forecast.batch.StackedAR1` row,
    ``("naive", 0, False)`` for a plain :class:`NaiveLast`; anything else
    keeps its selector scalar.
    """
    cls = type(model)
    if cls is NaiveLast:
        return ("naive", 0, False)
    if cls is ARIMA and model.p == 1 and model.q == 0:
        return ("arima", model.d, model.include_constant)
    return None


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
) -> np.ndarray:
    """Walk-forward one-step predictions of ``y[train_len:]``.

    At each step ``t >= train_len`` the model (fit on data up to ``t``)
    predicts ``y[t]``; the true value is then appended.  The model refits
    every *refit_every* steps on the whole history so far; each refit is a
    fresh ``factory()``.
    """
    arr = np.asarray(y, dtype=np.float64).ravel()
    n = arr.shape[0]
    if not (0 < train_len < n):
        raise ForecastError(f"train_len must be in 1..{n - 1}, got {train_len}")
    if refit_every < 1:
        raise ForecastError(f"refit_every must be >= 1, got {refit_every}")
    model = factory()
    model.fit(arr[:train_len])
    preds = np.empty(n - train_len)
    since_fit = 0
    for k, t in enumerate(range(train_len, n)):
        if since_fit >= refit_every:
            model = factory()
            (failure,) = warm_fit([model], [arr[:t]])
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
        :class:`Forecaster`, returning the same kind of model (type and
        order) on every call.  The paper's example pool is two ARIMA and
        two NARNET configurations.
    period:
        The fitness window ``T_p`` of Eq. (14).
    refit_every:
        Full refits happen every this many observed values.
    max_history:
        Bound on the history length used at refit — and on what the
        selector stores: older samples have no reader and are dropped
        (None or 0 = unbounded; negative is refused).
    tracer:
        Optional event sink; each :meth:`predict_one` emits a
        :class:`~repro.obs.events.ModelSelected` naming the answering
        pool member (Eq. 14 in action).

    A plain selector (no enabled tracer, a bounded
    ``max_history``, a pool of ``ARIMA(1, d, 0)`` and :class:`NaiveLast`)
    joins a :class:`SelectorBank` on its first fleet read
    (:func:`batch_predict_one`).  Its state then lives in a bank row, as
    columns: :meth:`observe` stages the value, and every other method
    first takes the row back, exact, with members fresh from the
    factories.  While banked, the object holds none of that state:
    reading ``_errors``, ``_models`` … directly raises ``AttributeError``
    until a method has taken the row back.
    """

    def __init__(
        self,
        factories: Dict[str, ForecasterFactory],
        *,
        period: int = 20,
        refit_every: int = 50,
        max_history: Optional[int] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if not factories:
            raise ForecastError("selector needs at least one model factory")
        if period < 1:
            raise ForecastError(f"period must be >= 1, got {period}")
        if refit_every < 1:
            raise ForecastError(f"refit_every must be >= 1, got {refit_every}")
        if max_history is not None and max_history < 0:
            raise ForecastError(f"max_history must be >= 0, got {max_history}")
        self.factories = dict(factories)
        self.period = period
        self.refit_every = refit_every
        self.max_history = max_history
        self.names = list(factories.keys())
        self.tracer = tracer
        self._step = 0
        self._models: Dict[str, Forecaster] = {}
        # errors older than the fitness window T_p can never influence
        # Eq. (14): the bounded deques are the window itself
        self._errors: Dict[str, Deque[float]] = {
            n: deque(maxlen=period) for n in self.names
        }
        self._last_pred: Dict[str, float] = {}
        self._last_best: Optional[str] = None
        self._history: Optional[_Series] = None
        self._since_fit = 0
        self._fitted = False
        # each member's bank kind (_bank_kind); while banked, the bank and
        # row that hold _models, _errors, _last_pred, _last_best, _history,
        # _step and _since_fit
        self._kinds: Tuple[MemberKind, ...] = ()
        self._bank: Optional[SelectorBank] = None
        self._row = -1
        # the last fleet read this selector came first in (batch_predict_one)
        self._fleet_read: Optional[_FleetRead] = None

    def _unbank(self) -> None:
        """Take this selector's state back from its bank (scalar: no-op)."""
        if self._bank is not None:
            self._bank.release(self._row)

    # ------------------------------------------------------------------ #
    def fit(self, y: np.ndarray) -> "DynamicModelSelector":
        """Fit every pool member on the training series."""
        self._unbank()
        self._history = _Series(y, self.max_history)
        self._refit_all()
        self._errors = {n: deque(maxlen=self.period) for n in self.names}
        self._last_pred = {}
        self._last_best = None
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
        self._kinds = tuple(map(_bank_kind, models))

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
        self._unbank()
        self._require_fitted()
        return self._min_trailing_mse(self._models)

    def _fallback_best(self) -> str:
        """Best member *among those that predicted* (Eq. 14 on the rest).

        Used when the Eq. (14) winner failed to produce a prediction: the
        answer comes from the lowest-trailing-MSE member that did predict
        (ties → pool order), not from ``_last_pred`` insertion order.
        """
        return self._min_trailing_mse(self._last_pred)

    def _answer(self, best: str) -> float:
        """Finalize one prediction step: record the winner, emit the event."""
        pred = self._last_pred[best]
        self._last_best = best
        if self.tracer.enabled:
            self.tracer.emit(
                ModelSelected(model=best, step=self._step, prediction=float(pred))
            )
        return pred

    def predict_one(self) -> float:
        """One-step forecast from the currently best model.

        Also caches every member's one-step prediction so that
        :meth:`observe` can score the whole pool against the realized value.
        """
        self._unbank()
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
        self._unbank()
        self._require_fitted()
        best = self.best_model_name()
        return self._models[best].forecast(h)

    def observe(self, value: float) -> None:
        """Feed the realized value: score the pool, advance, maybe refit.

        Each prediction is scored once: a second ``observe`` without a
        :meth:`predict_one` between them records no error.  A banked
        selector (fitted by construction) validates the value and stages it
        in its bank, which applies the staged rows in one step
        (:meth:`SelectorBank.settle`): when its last live row is staged —
        in a fleet driven one monitor at a time, inside the last monitor's
        ``observe`` — and before a row is staged twice.  The bank's rule is
        applied here, not in a bank method, so that a banked value costs
        one call, not two.
        """
        bank = self._bank
        if bank is not None:
            v = float(value)
            if not isfinite(v):
                _finite(value, "observed")  # raises, naming the value
            staged = bank._staged
            if self._row in staged:
                bank.settle()
                staged = bank._staged
            staged[self._row] = v
            if len(staged) == bank.n_banked:
                bank.settle()
            return
        self._require_fitted()
        value = _finite(value, "observed")
        if self._last_pred:
            for name, pred in self._last_pred.items():
                self._errors[name].append(value - pred)
            self._last_pred = {}
        for model in self._models.values():
            model.append(value)
        self._history.append(value)
        self._step += 1
        self._since_fit += 1
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


def _bank_key(sel: DynamicModelSelector) -> Optional[tuple]:
    """What *sel* shares with every row of its bank; None keeps it scalar.

    Bankable is exactly a fitted :class:`DynamicModelSelector` in no bank,
    with no enabled tracer, a bounded ``max_history`` (None and
    0 are unbounded, as in :func:`_window`; negative is refused at
    construction), no refit outstanding, a pool of bank kinds
    (:func:`_bank_kind`) and one series length over its live members.
    """
    if (
        type(sel) is not DynamicModelSelector
        or sel._bank is not None  # another bank's row: its state is there
        or not sel._fitted
        or sel.tracer.enabled
        or not sel.max_history
        or None in sel._kinds
        or sel._since_fit >= sel.refit_every
    ):
        return None
    lengths = {model._series.n for model in sel._models.values()}
    if len(lengths) != 1 or lengths.pop() > sel.max_history + sel.refit_every:
        return None
    return (tuple(sel.names), sel._kinds, sel.period, sel.refit_every, sel.max_history)


def _member(selectors: List[DynamicModelSelector], name: str) -> Callable[[int], Forecaster]:
    """A :class:`StackedAR1`'s ``scalar(i)``: ``selectors[i]``'s fresh *name* member."""
    return lambda i: selectors[i].factories[name]()


class SelectorBank:
    """A fleet of plain selectors held as arrays: Eq. (14) at fleet width.

    Row ``r`` holds ``selectors[r]``'s state as columns, moved out of the
    object (its member objects are dropped):

    * the Eq. (14) error windows, ``(rows, members, period)``, each
      right-aligned and oldest first as its deque holds it, with their
      lengths;
    * the last predictions and which members made one, ``_last_best``,
      ``_step`` and ``_since_fit``;
    * which members are live (a refit that raised drops its member until
      the next period);
    * the ``ARIMA(1, d, 0)`` state ``(const, phi, sigma2, w_last, heads)``;
    * the series since the last refit window began — every member's
      ``y_`` and the next refit window, at most ``max_history +
      refit_every`` samples.

    :meth:`DynamicModelSelector.observe` stages a row's observed value and
    :meth:`settle` applies the staged rows as one step, refits included
    (:meth:`_refit`: one closed-form solve per ``ARIMA`` member and series
    length, over the series matrix); :meth:`predict` is ``predict_one``
    for every row at once; :meth:`release` gives a row its exact scalar
    state back, for good.  :class:`DynamicModelSelector` stays the
    definition: the property suite holds a bank to scalar twins bit for
    bit.
    """

    def __init__(self, selectors: Sequence[DynamicModelSelector], key: tuple) -> None:
        self.selectors = list(selectors)
        self.key = key
        self.names, self.kinds, self.period, self.refit_every, self.max_history = key
        kinds = list(enumerate(self.kinds))
        self._arima = [(m, d, const) for m, (kind, d, const) in kinds if kind == "arima"]
        self._naive = [m for m, (kind, _, _) in kinds if kind == "naive"]
        rows, members = len(self.selectors), len(self.names)
        shape = (rows, members)
        self.err = np.zeros((rows, members, self.period))
        self.cnt = np.zeros(shape, dtype=np.int64)
        self.pred = np.zeros(shape)
        self.has_pred = np.zeros(shape, dtype=bool)
        self.alive = np.zeros(shape, dtype=bool)
        self.best = np.full(rows, -1, dtype=np.int64)
        self.step = np.zeros(rows, dtype=np.int64)
        self.since = np.zeros(rows, dtype=np.int64)
        self.const = np.zeros(shape)
        self.phi = np.zeros(shape)
        self.sigma2 = np.zeros(shape)
        self.w_last = np.zeros(shape)
        self.heads = np.zeros(
            (rows, members, max((d for _, d, _ in self._arima), default=0))
        )
        self.series = np.zeros((rows, self.max_history + self.refit_every))
        self.slen = np.zeros(rows, dtype=np.int64)
        self.banked = np.zeros(rows, dtype=bool)
        self.n_banked = 0
        self._staged: Dict[int, float] = {}  # row -> value, in staging order
        for row, sel in enumerate(self.selectors):
            self._adopt(row, sel)

    # ------------------------------------------------------------------ #
    def _adopt(self, row: int, sel: DynamicModelSelector) -> None:
        """Move *sel*'s state into *row*."""
        state = vars(sel)
        models = state.pop("_models")
        errors = state.pop("_errors")
        last_pred = state.pop("_last_pred")
        best = state.pop("_last_best")
        # a refit reads the last max_history samples: the members' series has them
        del state["_history"]
        self.step[row] = state.pop("_step")
        self.since[row] = state.pop("_since_fit")
        names, period = self.names, self.period
        self.cnt[row] = [len(errors[name]) for name in names]
        self.pred[row] = [last_pred.get(name, 0.0) for name in names]
        self.has_pred[row] = [name in last_pred for name in names]
        self.best[row] = -1 if best is None else names.index(best)
        for m, name in enumerate(names):
            window = errors[name]
            if window:
                self.err[row, m, period - len(window):] = list(window)
        self.alive[row] = [name in models for name in names]
        for m, d, _ in self._arima:
            model = models.get(names[m])
            if model is not None:
                self.const[row, m] = model.const_
                self.phi[row, m] = model.phi_[0]
                self.sigma2[row, m] = model.sigma2_
                self.w_last[row, m] = model._w_tail[-1]
                self.heads[row, m, :d] = model._heads
        series = next(iter(models.values())).y_
        self.series[row, : series.shape[0]] = series
        self.slen[row] = series.shape[0]
        sel._bank, sel._row = self, row
        self.banked[row] = True
        self.n_banked += 1

    def release(self, row: int) -> None:
        """Settle, then give ``selectors[row]`` its exact scalar state back.

        The row comes back even when the settle raises (another row's
        refit failed): the bank is consistent again by then.
        """
        try:
            self.settle()
        finally:
            if self.banked[row]:
                self._restore(row)

    def _restore(self, row: int) -> None:
        """Rebuild ``selectors[row]``'s scalar state from *row*: it leaves the bank.

        Each live member is built by its factory and given the row's state
        (an ``ARIMA`` through ``_install``); every array the selector gets
        back is a fresh copy.
        """
        sel = self.selectors[row]
        names, period = self.names, self.period
        series = self.series[row, : self.slen[row]]
        models: Dict[str, Forecaster] = {}
        for m, (name, (kind, d, _)) in enumerate(zip(names, self.kinds)):
            if not self.alive[row, m]:
                continue
            model = models[name] = sel.factories[name]()
            if kind == "arima":
                model._install(
                    _Series(series), self.const[row, m].item(), self.phi[row, m : m + 1].copy(),
                    np.zeros(0), self.sigma2[row, m].item(),
                    [self.w_last[row, m].item()], [], self.heads[row, m, :d].tolist(),
                )
            else:
                model.y_ = series
                model._fitted = True
        cnt = self.cnt[row].tolist()
        preds = zip(names, self.pred[row].tolist(), self.has_pred[row].tolist())
        best = int(self.best[row])
        vars(sel).update(
            _models=models,
            _errors={
                name: deque(self.err[row, m, period - cnt[m]:].tolist(), maxlen=period)
                for m, name in enumerate(names)
            },
            _last_pred={name: pred for name, pred, has in preds if has},
            _last_best=None if best < 0 else names[best],
            _history=_Series(series, self.max_history),
            _step=int(self.step[row]),
            _since_fit=int(self.since[row]),
        )
        sel._bank, sel._row = None, -1
        self.banked[row] = False
        self.n_banked -= 1

    # ------------------------------------------------------------------ #
    def settle(self) -> None:
        """Apply every staged row's ``observe`` as one vectorized step.

        The steps are the scalar's, in its order: score each member's
        prediction into its window and consume it; advance the members;
        append to the series; count; then one refit wave over the rows now
        due (:meth:`_refit`).
        """
        staged = self._staged
        if not staged:
            return
        self._staged = {}
        rows = np.fromiter(staged.keys(), np.intp, len(staged))
        vals = np.fromiter(staged.values(), np.float64, len(staged))
        n_rows = len(self.selectors)
        at: object = rows
        if rows.shape[0] == n_rows:  # every row: whole columns, no gathers
            ordered = np.empty(n_rows)
            ordered[rows] = vals
            at, rows, vals = slice(None), np.arange(n_rows), ordered
        period = self.period
        has = self.has_pred[at]
        err = vals[:, None] - self.pred[at]
        window = self.err[at]
        cnt = self.cnt[at]
        slid = np.concatenate((window[:, :, 1:], err[:, :, None]), axis=2)
        self.err[at] = slid if has.all() else np.where(has[:, :, None], slid, window)
        self.cnt[at] = np.where(has, np.minimum(cnt + 1, period), cnt)
        self.has_pred[at] = False
        for m, d, _ in self._arima:  # ARIMA.append, the O(d) state
            cur = vals
            for level in range(d):
                nxt = cur - self.heads[at, m, level]
                self.heads[at, m, level] = cur
                cur = nxt
            self.w_last[at, m] = cur
        self.series[rows, self.slen[at]] = vals
        self.slen[at] += 1
        self.step[at] += 1
        self.since[at] += 1
        due = rows[self.since[at] >= self.refit_every]
        if due.shape[0]:
            self._refit(np.sort(due).tolist())

    def _refit(self, due: List[int]) -> None:
        """One refit wave over the *due* rows: each row's pool, fresh.

        Grouped by series length, each ``ARIMA`` member is one
        :class:`StackedAR1` over its group's windows, whose scalar fallback
        is the row's own factory member: a factory runs only for a row the
        closed-form solve refuses.  A naive member has nothing to fit.
        The failure policy is the scalar's (:class:`DynamicModelSelector`):
        a member whose fit raised a ``ForecastError`` is dropped until the
        next period.  A row that lost every member, or whose fit raised
        anything else, keeps its outgoing members and leaves the bank; the
        lowest such row's error raises once every other row is installed.
        A failure ``warm_fit`` reports for a whole stack raises with the
        bank untouched.
        """
        names, limit = self.names, self.max_history
        groups: Dict[int, List[int]] = {}
        for row in due:
            groups.setdefault(int(self.slen[row]), []).append(row)
        stacks = [
            (np.asarray(rows), self.series[rows, n - min(n, limit) : n], [
                StackedAR1(_member([self.selectors[row] for row in rows], names[m]), d, const)
                for m, d, const in self._arima
            ])
            for n, rows in groups.items()
        ]
        fits = [fit for _, _, group in stacks for fit in group]
        for exc in warm_fit(fits, [Y for _, Y, group in stacks for _ in group]):
            if exc is not None:
                raise exc  # a whole stack failed: nothing is installed
        refused: List[Tuple[int, Exception]] = []
        for rows, Y, group in stacks:
            alive = np.ones((rows.shape[0], len(names)), dtype=bool)
            lost: Dict[int, List[Tuple[str, Exception]]] = {}  # pool order
            for (m, _, _), fit in zip(self._arima, group):
                for i, exc in fit.failures.items():
                    alive[i, m] = False
                    lost.setdefault(i, []).append((names[m], exc))
            keep = np.ones(rows.shape[0], dtype=bool)
            for i, failures in lost.items():
                outside = [exc for _, exc in failures if not isinstance(exc, ForecastError)]
                if outside or not alive[i].any():
                    row = int(rows[i])
                    refused.append((row, outside[0] if outside else ConvergenceError(
                        f"row {row}: every pool member failed to fit: {failures}"
                    )))
                    self._restore(row)
                    keep[i] = False
            at = slice(None) if keep.all() else keep
            rows, Y, w = rows[at], Y[at], Y.shape[1]
            self.alive[rows] = alive[at]
            self.since[rows] = 0
            for (m, d, _), fit in zip(self._arima, group):
                self.const[rows, m] = fit.const[at]
                self.phi[rows, m] = fit.phi[at]
                self.sigma2[rows, m] = fit.sigma2[at]
                if w <= d:  # too short for the order: the member failed
                    continue
                level = Y[:, w - d - 1 :]  # ARIMA.fit's tails: each level's last value
                for j in range(d):
                    self.heads[rows, m, j] = level[:, -1]
                    level = np.diff(level, axis=1)
                self.w_last[rows, m] = level[:, -1]
            self.series[rows, :w] = Y  # the window just fitted becomes the series
            self.slen[rows] = w
        if refused:
            raise min(refused, key=lambda failure: failure[0])[1]

    # ------------------------------------------------------------------ #
    def predict(self) -> np.ndarray:
        """Every row's ``predict_one`` answer, one array op per step.

        Each member's one-step forecast (the Sec. IV-B recursion and the
        Eq. (12) integration on the columns; ``NaiveLast`` repeats the
        last sample), the Eq. (14) scores, and a first-minimum ``argmin``
        over the live members: the scalar loop's strict ``<`` in pool
        order.  Released rows read stale values; the caller skips them.
        """
        self.settle()
        rows = np.arange(len(self.selectors))
        for m, d, _ in self._arima:
            val = self.const[:, m] + self.phi[:, m] * self.w_last[:, m]
            for level in range(d - 1, -1, -1):
                val = self.heads[:, m, level] + val
            self.pred[:, m] = val
        if self._naive:
            self.pred[:, self._naive] = self.series[rows, self.slen - 1][:, None]
        np.copyto(self.has_pred, self.alive)
        scores = np.where(self.alive, self._scores(), np.inf)
        self.best[:] = np.argmin(scores, axis=1)
        return self.pred[rows, self.best]

    def _scores(self) -> np.ndarray:
        """``trailing_mse`` of every window: ``np.mean(E * E)`` over each.

        One pass per window length ``n`` present (a steady fleet has one):
        every cell's last ``n`` squared errors as one contiguous ``(cells,
        n)`` matrix — the row-wise image of the scalar ``np.mean`` on one
        window — kept where the cell's window has that length.  An empty
        window scores 0.0, no evidence against its member yet.
        """
        cnt, period = self.cnt, self.period
        sq = self.err * self.err
        out = np.zeros(cnt.shape)
        for n in np.flatnonzero(np.bincount(cnt.ravel())).tolist():
            if n:
                mean = np.mean(sq[:, :, period - n :].reshape(-1, n), axis=1)
                np.copyto(out, mean.reshape(cnt.shape), where=cnt == n)
        return out


class _FleetRead:
    """The banks behind one fleet's :func:`batch_predict_one`.

    Built on the first read of a fleet: every selector is taken back from
    any bank it was in, then the bankable ones are grouped into one
    :class:`SelectorBank` per key (:func:`_bank_key`) and the rest — and
    any selector listed twice — answer through their own ``predict_one``.
    Reused while the fleet is the same selectors in the same order: a row
    released since answers scalar until a read of another fleet builds new
    banks.
    """

    def __init__(self, selectors: List[DynamicModelSelector]) -> None:
        self.selectors = selectors
        counts = Counter(map(id, selectors))
        groups: Dict[tuple, List[int]] = {}
        self.scalar: List[int] = []
        for i, sel in enumerate(selectors):
            sel._unbank()
            key = _bank_key(sel) if counts[id(sel)] == 1 else None
            if key is None:
                self.scalar.append(i)
            else:
                groups.setdefault(key, []).append(i)
        self.banks = [
            (SelectorBank([selectors[i] for i in positions], key), np.asarray(positions))
            for key, positions in groups.items()
        ]

    def predict_one(self) -> np.ndarray:
        out = np.empty(len(self.selectors))
        scalar = list(self.scalar)
        for bank, positions in self.banks:
            out[positions] = bank.predict()
            if bank.n_banked < len(positions):
                scalar += positions[~bank.banked].tolist()
        for i in sorted(scalar):
            out[i] = self.selectors[i].predict_one()
        return out


def batch_predict_one(selectors: Sequence[DynamicModelSelector]) -> np.ndarray:
    """``[s.predict_one() for s in selectors]``, the fleet as arrays.

    The first read of a fleet moves its bankable selectors into
    :class:`SelectorBank` rows; later reads of the same selectors, in the
    same order, reuse the banks (the first selector keeps the read), and a
    read of another fleet builds its own (a selector left in an older bank
    comes back the first time it is touched).  Values and selector state
    are the scalar loop's, bit for bit; selectors outside a bank
    (tracing, unbounded history, other pools) answer through their
    own :meth:`DynamicModelSelector.predict_one`.  The answers come back
    as one float array, a slot per selector.
    """
    sels = selectors if type(selectors) is list else list(selectors)
    if not sels:
        return np.empty(0)
    fleet = sels[0]._fleet_read
    if fleet is None or fleet.selectors != sels:
        fleet = sels[0]._fleet_read = _FleetRead(list(sels))
    return fleet.predict_one()
