"""Metrics registry: labeled counters, gauges and histograms.

The registry is the simulator's single numeric scoreboard.  Decision
sites increment labeled instruments (e.g. ``requests_total{rack=3}``);
:class:`RoundSummary <repro.sim.engine.RoundSummary>` and the CLI read
round totals back through :class:`MetricsScope` instead of re-deriving
them with ad-hoc sums.

Design notes
------------
* Instruments are get-or-create: ``registry.counter(name, **labels)``
  always returns the same object for the same ``(name, labels)`` key.  A
  repeat lookup with the same labels in the same order is one dict
  probe; the canonical (sorted, stringified) key is built on first sight.
* :meth:`MetricsRegistry.scope` opens a window during which every
  counter increment and histogram observation is *also* accumulated into
  the scope, per instrument, starting from exactly ``0.0``.  Scope totals
  over a round therefore reproduce the engine's historical per-report
  summation order bit-for-bit (each label's partial sum accumulates
  sequentially, and the cross-label total adds the partials in
  first-touch order) — which is what lets ``RoundSummary`` read from the
  registry without changing seed numerics.
* :meth:`MetricsRegistry.deferred` queues counter increments and
  histogram observations and :meth:`MetricsRegistry.apply` applies the
  queue in one loop, bit for bit what the calls would have done one at a
  time (values, reservoir draws, scope partials and first-touch order).
  The engine's ``plan`` stage defers a round's per-rack updates this way.
* A name registered as one instrument type cannot be re-registered as
  another — that raises :class:`~repro.errors.ObservabilityError`.
"""

from __future__ import annotations

import math
import random
import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsScope"]

RESERVOIR_SIZE = 512
"""Bounded per-histogram sample reservoir (Vitter's Algorithm R)."""

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


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
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        pending = self._registry._pending
        if pending is not None:
            pending.append((self, amount))
            return
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

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Streaming distribution: count/sum/min/max plus optional buckets.

    Quantiles come from a bounded reservoir (Algorithm R, capacity
    :data:`RESERVOIR_SIZE`): memory stays O(1) per histogram no matter
    how many observations stream through, unlike an unbounded sample
    list.  The reservoir RNG is seeded from the instrument's formatted
    key via CRC-32 — *not* Python's per-process-salted ``hash()`` — so
    identical observation streams yield identical quantiles run-to-run.

    Parameters
    ----------
    buckets:
        Optional ascending upper bounds; observations count into the
        first bucket whose bound is >= the value (a final implicit
        ``+inf`` bucket catches the rest).
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        key: MetricKey,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self._registry = registry
        self._key = key
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.buckets: Optional[Tuple[float, ...]] = (
            tuple(buckets) if buckets is not None else None
        )
        if self.buckets is not None and list(self.buckets) != sorted(self.buckets):
            raise ObservabilityError(
                f"histogram {key[0]}: buckets must be ascending, got {buckets}"
            )
        self.bucket_counts: List[int] = (
            [0] * (len(self.buckets) + 1) if self.buckets is not None else []
        )
        self._reservoir: List[float] = []
        self._rng = random.Random(zlib.crc32(_format_key(key).encode()))

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
        pending = self._registry._pending
        if pending is not None:
            pending.append((self, value))
            return
        self._registry._record(self._key, self._add(value))

    def _add(self, value: float) -> float:
        """Fold *value* into the distribution; returns it as a float."""
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if self.buckets is not None:
            for i, bound in enumerate(self.buckets):
                if v <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.bucket_counts[-1] += 1
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(v)
        else:
            j = self._rng.randrange(self.count)
            if j < RESERVOIR_SIZE:
                self._reservoir[j] = v
        return v

    def quantile(self, q: float) -> float:
        """Reservoir estimate of the *q*-quantile (0 <= q <= 1).

        Exact while the stream fits the reservoir (fewer than
        :data:`RESERVOIR_SIZE` observations); a uniform-sample estimate
        beyond.  Linear interpolation between order statistics; ``0.0``
        on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def quantiles(self) -> Dict[str, float]:
        """The standard reporting trio: ``{"p50", "p95", "p99"}``."""
        ordered = sorted(self._reservoir)
        out: Dict[str, float] = {}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            if not ordered:
                out[label] = 0.0
                continue
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            out[label] = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        return out


class MetricsScope:
    """Per-instrument accumulation window (one management round).

    Opened by :meth:`MetricsRegistry.scope`; while active, every counter
    increment and histogram observation lands here too, each instrument's
    partial starting from exactly ``0.0``.
    """

    def __init__(self) -> None:
        self._values: Dict[MetricKey, float] = {}
        self._counts: Dict[MetricKey, int] = {}
        # each family's keys in first-touch order: a family read adds its
        # own partials, not a filter over every instrument of the window
        self._family: Dict[str, List[MetricKey]] = {}

    def _record(self, key: MetricKey, amount: float) -> None:
        if key not in self._values:
            self._family.setdefault(key[0], []).append(key)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._counts[key] = self._counts.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    def value(self, name: str, **labels: object) -> float:
        """This window's sum for one exact ``(name, labels)`` instrument."""
        return self._values.get((name, _label_key(labels)), 0.0)

    def total(self, name: str) -> float:
        """This window's sum for *name* across all label sets.

        Partials are added in first-touch order, mirroring the order the
        engine historically summed per-shim reports in.
        """
        out = 0.0
        for key in self._family.get(name, ()):
            out += self._values[key]
        return out

    def count(self, name: str) -> int:
        """Number of recordings for *name* across all label sets."""
        return sum(self._counts[key] for key in self._family.get(name, ()))

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        """Per-label-value sums for *name* (e.g. per-rack reject counts)."""
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
        # while a deferred() window is open: its queue of (instrument, amount)
        self._pending: Optional[List[tuple]] = None

    # ------------------------------------------------------------------ #
    def _get(self, cls: type, name: str, labels: Dict[str, object], **kw):
        hit = (cls, name, *labels.items(), *map(type, labels.values()))
        try:
            metric = self._hits.get(hit)
        except TypeError:  # an unhashable label value: canonical key only
            return self._get_canonical(cls, name, labels, **kw)
        if metric is None:
            metric = self._hits[hit] = self._get_canonical(cls, name, labels, **kw)
        return metric

    def _get_canonical(self, cls: type, name: str, labels: Dict[str, object], **kw):
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
            metric = cls(self, key, **kw)
            self._metrics[key] = metric
            self._types[name] = cls
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, *, buckets: Optional[Sequence[float]] = None, **labels: object
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------ #
    def _record(self, key: MetricKey, amount: float) -> None:
        for scope in self._scopes:
            scope._record(key, amount)

    def apply(self, updates: Iterable[Tuple[object, float]]) -> None:
        """Apply queued ``(instrument, amount)`` pairs, in order.

        Each pair does what ``counter.inc(amount)`` or
        ``histogram.observe(amount)`` does — the instrument's value or
        distribution (reservoir draws included) and every open scope's
        partial, count and first-touch family order — in one loop, without
        a method call per counter update.  A negative counter amount raises
        :class:`~repro.errors.ObservabilityError` with the updates before it
        applied.
        """
        scopes = self._scopes
        for metric, amount in updates:
            if isinstance(metric, Histogram):
                amount = metric._add(amount)
            else:
                if amount < 0:
                    raise ObservabilityError(
                        f"counter {metric.name} cannot decrease (inc({amount}))"
                    )
                metric.value += amount
            key = metric._key
            for scope in scopes:
                values = scope._values
                if key in values:
                    values[key] += amount
                    scope._counts[key] += 1
                else:
                    scope._family.setdefault(key[0], []).append(key)
                    values[key] = 0.0 + amount
                    scope._counts[key] = 1

    @contextmanager
    def deferred(self) -> Iterator[List[tuple]]:
        """Queue counter increments and histogram observations while open,
        then :meth:`apply` the queue once on exit (on an exception too).

        Only the updates wait: instruments are still created where they
        are first used, so the registry's key order is unchanged, and the
        queue keeps every caller's updates in call order.  A window opened
        inside an open one joins it.
        """
        if self._pending is not None:
            yield self._pending
            return
        queue: List[tuple] = []
        self._pending = queue
        try:
            yield queue
        finally:
            self._pending = None
            self.apply(queue)

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
        """Cumulative sum of a counter family across all label sets."""
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
                    entry.update(m.quantiles())
                if m.buckets is not None:
                    entry["buckets"] = {
                        **{str(b): c for b, c in zip(m.buckets, m.bucket_counts)},
                        "+inf": m.bucket_counts[-1],
                    }
                out[label] = entry
        return out
