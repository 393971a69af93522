"""Metrics registry: labeled counters, gauges and histograms.

The registry holds the run's totals; it is not where a round's outcome is
kept.  A round's counts live in its own record — the round state the
engine builds (:class:`~repro.service.round.RoundState`, which
:class:`RoundSummary <repro.sim.engine.RoundSummary>` is built from) and
its per-rack :class:`~repro.migration.reports.RoundReports` — and each
round adds their totals here in one write
(:meth:`RoundState.write_metrics <repro.service.round.RoundState.write_metrics>`,
which calls :meth:`RoundReports.write_metrics
<repro.migration.reports.RoundReports.write_metrics>`).  Nothing in the
round reads the registry back.

Design notes
------------
* Instruments are get-or-create: ``registry.counter(name, **labels)``
  always returns the same object for the same ``(name, labels)`` key,
  canonical (sorted, stringified), so label order does not matter.
* A histogram keeps count, sum, min and max, so it is exported as a
  Prometheus summary of ``_sum`` and ``_count``; the quantiles a report
  prints come from :func:`quantile` over the values it holds itself.
* A name registered as one instrument type cannot be re-registered as
  another — that raises :class:`~repro.errors.ObservabilityError`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def quantile(ordered: Sequence[float], q: float) -> float:
    """The *q*-quantile of an ascending sequence, interpolated linearly
    between order statistics; ``0.0`` when it is empty.

    Raises :class:`~repro.errors.ObservabilityError` for ``q`` outside
    ``[0, 1]`` (NaN included).
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile {q} outside [0, 1]")
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _Instrument:
    """One ``(name, labels)`` instrument of a registry."""

    def __init__(self, key: MetricKey) -> None:
        self._key = key

    @property
    def name(self) -> str:
        return self._key[0]

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self._key[1])

    def __str__(self) -> str:
        """``name{k=v,...}``, as :meth:`MetricsRegistry.as_dict` keys it."""
        return _format_key(self._key)


class Counter(_Instrument):
    """Monotonically non-decreasing sum."""

    def __init__(self, key: MetricKey) -> None:
        super().__init__(key)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # NaN compares false
            why = "cannot add NaN" if amount != amount else "cannot decrease"
            raise ObservabilityError(f"counter {self.name} {why} (inc({amount}))")
        self.value += amount


class Gauge(_Instrument):
    """Point-in-time value (can move both ways)."""

    def __init__(self, key: MetricKey) -> None:
        super().__init__(key)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(_Instrument):
    """Streaming distribution: count, sum, min, max and mean."""

    def __init__(self, key: MetricKey) -> None:
        super().__init__(key)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def observe_many(self, values) -> None:
        """:meth:`observe` each of *values*, in order, in one call.

        The sum adds them one by one (``np.cumsum``), as the calls would.
        """
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self.count += values.size
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))


def _format_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store of labeled instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, object] = {}
        self._types: Dict[str, type] = {}

    # ------------------------------------------------------------------ #
    def _get(self, cls: type, name: str, labels: Dict[str, object]):
        if not name:
            raise ObservabilityError("metric name must be non-empty")
        seen = self._types.get(name)
        if seen is not None and seen is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {seen.__name__}, "
                f"cannot re-register as {cls.__name__}"
            )
        key: MetricKey = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key)
            self._metrics[key] = metric
            self._types[name] = cls
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------ #
    def instruments(self) -> Iterator[object]:
        """Every registered instrument (counters, gauges, histograms)."""
        return iter(self._metrics.values())

    def total(self, name: str) -> float:
        """Cumulative sum of the instruments named *name* across all label
        sets (a histogram's sum)."""
        out = 0.0
        for (n, _), m in self._metrics.items():
            if n == name:
                out += m.value if isinstance(m, (Counter, Gauge)) else m.sum
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every instrument."""
        out: Dict[str, object] = {}
        for key, m in self._metrics.items():
            label = _format_key(key)
            if isinstance(m, Counter):
                out[label] = m.value
            elif isinstance(m, Gauge):
                out[label] = m.value
            else:
                assert isinstance(m, Histogram)
                entry: Dict[str, object] = {
                    "count": m.count,
                    "sum": m.sum,
                    "mean": m.mean,
                }
                if m.count:
                    entry["min"] = m.min
                    entry["max"] = m.max
                out[label] = entry
        return out
