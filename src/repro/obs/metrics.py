"""Metrics registry: labeled counters, gauges and histograms.

The registry is the simulator's single numeric scoreboard.  Decision
sites increment instruments (e.g. ``sheriff_rollbacks_total``, or
``sheriff_slo_violation_minutes_total{tenant=gold,...}``);
:class:`RoundSummary <repro.sim.engine.RoundSummary>` and the CLI read
round totals back through :class:`MetricsScope` instead of re-deriving
them with ad-hoc sums.  What each shim did in a round is not kept here:
it is the round's record (``sim.history[i].reports``), and the planning
counters and histograms are that record's round totals, written once a
round by :meth:`~repro.migration.reports.RoundReports.write_metrics`.

Design notes
------------
* Instruments are get-or-create: ``registry.counter(name, **labels)``
  always returns the same object for the same ``(name, labels)`` key.  A
  repeat lookup with the same labels in the same order is one dict
  probe; the canonical (sorted, stringified) key is built on first sight.
* :meth:`MetricsRegistry.scope` opens a window during which every
  counter increment and histogram observation is *also* accumulated into
  the scope, per instrument, starting from exactly ``0.0``; a label set's
  partials are added in first-touch order when the scope totals a name.
* A histogram keeps count, sum, min and max, so it is exported as a
  Prometheus summary of ``_sum`` and ``_count``; the quantiles a report
  prints come from :func:`quantile` over the values it holds itself.
* A name registered as one instrument type cannot be re-registered as
  another — that raises :class:`~repro.errors.ObservabilityError`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "quantile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
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


class Counter:
    """Monotonically non-decreasing sum."""

    def __init__(self, registry: "MetricsRegistry", key: MetricKey) -> None:
        self._registry = registry
        self._key = key
        self.value: float = 0.0

    @property
    def name(self) -> str:
        return self._key[0]

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self._key[1])

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # NaN compares false
            why = "cannot add NaN" if amount != amount else "cannot decrease"
            raise ObservabilityError(f"counter {self.name} {why} (inc({amount}))")
        self.value += amount
        self._registry._record(self._key, amount)


class Gauge:
    """Point-in-time value (can move both ways)."""

    def __init__(self, registry: "MetricsRegistry", key: MetricKey) -> None:
        self._key = key
        self.value: float = 0.0

    @property
    def name(self) -> str:
        return self._key[0]

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self._key[1])

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Streaming distribution: count, sum, min, max and mean."""

    def __init__(self, registry: "MetricsRegistry", key: MetricKey) -> None:
        self._registry = registry
        self._key = key
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    @property
    def name(self) -> str:
        return self._key[0]

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self._key[1])

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
        self._registry._record(self._key, v)

    def observe_many(self, values) -> None:
        """:meth:`observe` each of *values*, in order, in one call.

        The sum adds them one by one (``np.cumsum``), as the calls would;
        open scopes record their sum once.
        """
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self.count += values.size
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        self._registry._record(self._key, float(np.cumsum(values)[-1]))


class MetricsScope:
    """Per-instrument accumulation window (one management round).

    Opened by :meth:`MetricsRegistry.scope`; while active, every counter
    increment and histogram observation lands here too, each instrument's
    partial starting from exactly ``0.0``.
    """

    def __init__(self) -> None:
        self._values: Dict[MetricKey, float] = {}
        # each name's keys in first-touch order: a total adds its own
        # partials, not a filter over every instrument of the window
        self._family: Dict[str, List[MetricKey]] = {}

    def _record(self, key: MetricKey, amount: float) -> None:
        if key not in self._values:
            self._family.setdefault(key[0], []).append(key)
        self._values[key] = self._values.get(key, 0.0) + amount

    # ------------------------------------------------------------------ #
    def value(self, name: str, **labels: object) -> float:
        """This window's sum for one exact ``(name, labels)`` instrument."""
        return self._values.get((name, _label_key(labels)), 0.0)

    def total(self, name: str) -> float:
        """This window's sum for *name* across all label sets.

        Partials are added in the order their label sets were first
        touched in the window.
        """
        out = 0.0
        for key in self._family.get(name, ()):
            out += self._values[key]
        return out

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        """Per-label-value sums for *name* (e.g. per-tenant SLO minutes)."""
        out: Dict[str, float] = {}
        for key in self._family.get(name, ()):
            for k, lv in key[1]:
                if k == label:
                    out[lv] = out.get(lv, 0.0) + self._values[key]
        return out

    def as_dict(self) -> Dict[str, float]:
        """Flat ``name{k=v,...} -> sum`` mapping of the window."""
        return {_format_key(k): v for k, v in self._values.items()}


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
        self._scopes: List[MetricsScope] = []
        # (cls, name, *labels.items(), *label value types) -> instrument:
        # a repeat lookup is one dict probe, with no sort and no str().
        # The value types keep apart labels that compare equal but print
        # differently (1, 1.0 and True)
        self._hits: Dict[tuple, object] = {}

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._metrics)

    # ------------------------------------------------------------------ #
    def _get(self, cls: type, name: str, labels: Dict[str, object]):
        hit = (cls, name, *labels.items(), *map(type, labels.values()))
        try:
            metric = self._hits.get(hit)
        except TypeError:  # an unhashable label value: canonical key only
            return self._get_canonical(cls, name, labels)
        if metric is None:
            metric = self._hits[hit] = self._get_canonical(cls, name, labels)
        return metric

    def _get_canonical(self, cls: type, name: str, labels: Dict[str, object]):
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
            metric = cls(self, key)
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
    def _record(self, key: MetricKey, amount: float) -> None:
        for scope in self._scopes:
            scope._record(key, amount)

    class _ScopeContext:
        def __init__(self, registry: "MetricsRegistry") -> None:
            self._registry = registry
            self.scope = MetricsScope()

        def __enter__(self) -> MetricsScope:
            self._registry._scopes.append(self.scope)
            return self.scope

        def __exit__(self, *exc) -> None:
            self._registry._scopes.remove(self.scope)

    def scope(self) -> "MetricsRegistry._ScopeContext":
        """Open an accumulation window (used per management round)."""
        return MetricsRegistry._ScopeContext(self)

    # ------------------------------------------------------------------ #
    def instruments(self) -> Iterator[object]:
        """Every registered instrument (counters, gauges, histograms)."""
        return iter(self._metrics.values())

    def series(self, name: str) -> Dict[str, object]:
        """All instruments named *name*, keyed by their formatted labels."""
        return {
            _format_key(k): m for k, m in self._metrics.items() if k[0] == name
        }

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
