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
* A *family* (:meth:`MetricsRegistry.counters`,
  :meth:`MetricsRegistry.histograms`) is one instrument name over one
  integer label, its members' state kept in numpy arrays indexed by slot.
  A write is one vectorised call per family over an array of label values
  (:meth:`CounterFamily.add`, :meth:`HistogramFamily.observe`), bit for bit
  what one ``inc`` / ``observe`` per value would do — values, reservoir
  draws and scope partials.  Only a label value's first registration
  (:meth:`MetricsRegistry.register`) takes a Python step;
  ``registry.counter(name, rack=r)`` returns that member, whose ``.value``
  reads the array.  The engine's per-rack instruments are families written
  from the round's record
  (:meth:`~repro.migration.reports.RoundReports.write_metrics`).
* A name registered as one instrument type cannot be re-registered as
  another — that raises :class:`~repro.errors.ObservabilityError`.
"""

from __future__ import annotations

import math
import operator
import random
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "quantile",
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "MetricsScope",
]

RESERVOIR_SIZE = 512
"""Bounded per-histogram sample reservoir (Vitter's Algorithm R)."""

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


def _refused(name: str, amount) -> ObservabilityError:
    """What a counter raises for a negative or NaN increment."""
    why = "cannot add NaN" if amount != amount else "cannot decrease"
    return ObservabilityError(f"counter {name} {why} (inc({amount}))")


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
            raise _refused(self.name, amount)
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
        if self.buckets is not None and not all(
            lo < hi for lo, hi in zip(self.buckets, self.buckets[1:])
        ):
            raise ObservabilityError(
                f"histogram {key[0]}: buckets must be strictly ascending, "
                f"got {buckets}"
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
        return quantile(sorted(self._reservoir), q)

    def quantiles(self) -> Dict[str, float]:
        """The standard reporting trio: ``{"p50", "p95", "p99"}``."""
        ordered = sorted(self._reservoir)
        return {
            label: quantile(ordered, q)
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
        }


class MetricsScope:
    """Per-instrument accumulation window (one management round).

    Opened by :meth:`MetricsRegistry.scope`; while active, every counter
    increment and histogram observation lands here too, each instrument's
    partial starting from exactly ``0.0``.  A family's vectorised writes are
    kept as they came and folded into the partials, in write order, when
    something reads that family.
    """

    def __init__(self) -> None:
        self._values: Dict[MetricKey, float] = {}
        # each family's keys in first-touch order: a family read adds its
        # own partials, not a filter over every instrument of the window
        self._family: Dict[str, List[MetricKey]] = {}
        # family name -> its (family, slots, amounts) writes not folded yet
        self._columns: Dict[str, List[tuple]] = {}

    def _record(self, key: MetricKey, amount: float) -> None:
        if key not in self._values:
            self._family.setdefault(key[0], []).append(key)
        self._values[key] = self._values.get(key, 0.0) + amount

    def _fold(self, name: Optional[str] = None) -> None:
        """Fold the family writes of *name* (default: every family) into
        the partials, one recording per amount, as the calls would have."""
        for n in list(self._columns) if name is None else [name]:
            for family, slots, amounts in self._columns.pop(n, ()):
                members = family.members
                for slot, amount in zip(slots.tolist(), amounts.tolist()):
                    self._record(members[slot]._key, amount)

    # ------------------------------------------------------------------ #
    def value(self, name: str, **labels: object) -> float:
        """This window's sum for one exact ``(name, labels)`` instrument."""
        self._fold(name)
        return self._values.get((name, _label_key(labels)), 0.0)

    def total(self, name: str) -> float:
        """This window's sum for *name* across all label sets.

        Partials are added in first-touch order, mirroring the order the
        engine historically summed per-shim reports in.
        """
        self._fold(name)
        out = 0.0
        for key in self._family.get(name, ()):
            out += self._values[key]
        return out

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        """Per-label-value sums for *name* (e.g. per-rack reject counts)."""
        self._fold(name)
        out: Dict[str, float] = {}
        for key in self._family.get(name, ()):
            for k, lv in key[1]:
                if k == label:
                    out[lv] = out.get(lv, 0.0) + self._values[key]
        return out

    def as_dict(self) -> Dict[str, float]:
        """Flat ``name{k=v,...} -> sum`` mapping of the window."""
        self._fold()
        return {_format_key(k): v for k, v in self._values.items()}


def _format_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _grown(arr: np.ndarray, size: int, fill) -> np.ndarray:
    """*arr* with at least *size* rows (capacity doubles), new rows *fill*."""
    if size <= len(arr):
        return arr
    out = np.full((max(size, 2 * len(arr)),) + arr.shape[1:], fill, arr.dtype)
    out[: len(arr)] = arr
    return out


class _Family:
    """One instrument name over one integer label: members in first
    registration order, their state in arrays indexed by slot."""

    def __init__(self, registry: "MetricsRegistry", name: str, label: str) -> None:
        self._registry = registry
        self.name = name
        self.label = label
        self.members: List[object] = []
        # label value -> slot, -1 while unseen
        self._slot = np.full(0, -1, dtype=np.int64)

    def _negative(self) -> ObservabilityError:
        return ObservabilityError(
            f"family {self.name}: label {self.label} takes non-negative ints"
        )

    def slots(self, values) -> np.ndarray:
        """The slot of each label value (``-1``: not registered yet)."""
        values = np.asarray(values, dtype=np.int64)
        # one reduction: a negative value reads as 2**63 or more unsigned
        top = int(values.view(np.uint64).max(initial=0))
        if top >= len(self._slot):
            if top >= 2**63:
                raise self._negative()
            self._slot = _grown(self._slot, top + 1, -1)
        return self._slot[values]

    def _new(self, value: int) -> Optional[object]:
        """A member for label *value*, or ``None`` when it has one (the
        registry orders new members)."""
        if value < 0:
            raise self._negative()
        if value < len(self._slot) and self._slot[value] >= 0:
            return None
        self._slot = _grown(self._slot, value + 1, -1)
        slot = len(self.members)
        self._grow(slot + 1)
        self._slot[value] = slot
        member = self.member(self, slot, (self.name, ((self.label, str(value)),)))
        self.members.append(member)
        return member

    def _scoped(self, slots: np.ndarray, amounts: np.ndarray) -> None:
        # open scopes keep the arrays as given, to fold when read
        for scope in self._registry._scopes:
            scope._columns.setdefault(self.name, []).append((self, slots, amounts))


class _CounterMember(Counter):
    """A :class:`CounterFamily` member: its value is the family's entry."""

    def __init__(self, family: "CounterFamily", slot: int, key: MetricKey) -> None:
        self._registry = family._registry
        self._key = key
        self._family = family
        self._slot = slot

    @property
    def value(self) -> float:
        return float(self._family.values[self._slot])

    def inc(self, amount: float = 1.0) -> None:
        self._family.add(
            np.array([self._slot]), np.array([amount], dtype=np.float64)
        )


class CounterFamily(_Family):
    """Counters over one label, their values one float64 array."""

    member = _CounterMember

    def __init__(self, registry: "MetricsRegistry", name: str, label: str) -> None:
        super().__init__(registry, name, label)
        self.values = np.zeros(0)

    def _grow(self, size: int) -> None:
        self.values = _grown(self.values, size, 0.0)

    def add(self, slots: np.ndarray, amounts: np.ndarray) -> None:
        """``inc(amounts[i])`` on member ``slots[i]`` for every ``i``, as one
        add (the slots are distinct, so each gets exactly its own amount).

        A negative or NaN amount refuses the whole write, with the error
        that ``inc`` of it raises.  Open scopes keep *slots* and *amounts*
        until they are read: the caller does not write to them after."""
        ok = amounts >= 0
        if not ok.all():
            raise _refused(self.name, amounts[~ok][0].item())
        self.values[slots] += amounts
        self._scoped(slots, amounts)


class _HistogramMember(Histogram):
    """A :class:`HistogramFamily` member: its state is the family's row."""

    buckets = None
    bucket_counts: Sequence[int] = ()

    def __init__(self, family: "HistogramFamily", slot: int, key: MetricKey) -> None:
        self._registry = family._registry
        self._key = key
        self._family = family
        self._slot = slot
        family.rngs.append(random.Random(zlib.crc32(_format_key(key).encode())))

    count = property(lambda self: int(self._family.count[self._slot]))
    sum = property(lambda self: float(self._family.sum[self._slot]))
    min = property(lambda self: float(self._family.min[self._slot]))
    max = property(lambda self: float(self._family.max[self._slot]))
    _rng = property(lambda self: self._family.rngs[self._slot])

    @property
    def _reservoir(self) -> List[float]:
        kept = min(self.count, RESERVOIR_SIZE)
        return self._family.reservoir[self._slot, :kept].tolist()

    def observe(self, value: float) -> None:
        self._family.observe(
            np.array([self._slot]), np.array([1]), np.array([float(value)])
        )


class HistogramFamily(_Family):
    """Bucketless histograms over one label: count, sum, min, max and the
    :data:`RESERVOIR_SIZE` reservoir of each member in arrays, each member
    with its own reservoir RNG."""

    member = _HistogramMember

    def __init__(self, registry: "MetricsRegistry", name: str, label: str) -> None:
        super().__init__(registry, name, label)
        self.count = np.zeros(0, dtype=np.int64)
        self.sum = np.zeros(0)
        self.min = np.zeros(0)
        self.max = np.zeros(0)
        self.reservoir = np.zeros((0, RESERVOIR_SIZE))
        self.rngs: List[random.Random] = []

    def _grow(self, size: int) -> None:
        self.count = _grown(self.count, size, 0)
        self.sum = _grown(self.sum, size, 0.0)
        self.min = _grown(self.min, size, math.inf)
        self.max = _grown(self.max, size, -math.inf)
        self.reservoir = _grown(self.reservoir, size, 0.0)

    def observe(
        self, slots: np.ndarray, counts: np.ndarray, values: np.ndarray
    ) -> None:
        """Member ``slots[i]`` observes the next ``counts[i]`` of *values*,
        in order, for every ``i`` (the slots distinct): what one
        ``observe`` per value does to its member — the sum added value by
        value (``np.add.at`` adds in index order), min, max, and Algorithm
        R's reservoir, with the member's own draws once it is full.  Open
        scopes keep *values* until they are read, as :meth:`CounterFamily.add`
        keeps its arrays."""
        values = np.asarray(values, dtype=np.float64)
        at = np.repeat(slots, counts)
        # each value's place in its member's stream
        seen = np.repeat(self.count[slots] - np.cumsum(counts) + counts, counts)
        seen += np.arange(len(values))
        self.count[slots] += counts
        np.add.at(self.sum, at, values)
        np.fmin.at(self.min, at, values)
        np.fmax.at(self.max, at, values)
        fill = seen < RESERVOIR_SIZE
        self.reservoir[at[fill], seen[fill]] = values[fill]
        if not fill.all():
            full = ~fill
            for slot, n, x in zip(
                at[full].tolist(), seen[full].tolist(), values[full].tolist()
            ):
                j = self.rngs[slot].randrange(n + 1)
                if j < RESERVOIR_SIZE:
                    self.reservoir[slot, j] = x
        self._scoped(at, values)


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
        self._families: Dict[str, _Family] = {}

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._metrics)

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
        family = self._families.get(name)
        if family is not None:
            return self._member(family, labels)
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
    def counters(self, name: str, label: str) -> CounterFamily:
        """The counter family *name* over *label* (get-or-create)."""
        return self._family(CounterFamily, Counter, name, label)

    def histograms(self, name: str, label: str) -> HistogramFamily:
        """The histogram family *name* over *label* (get-or-create)."""
        return self._family(HistogramFamily, Histogram, name, label)

    def _family(self, cls: type, kind: type, name: str, label: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            if name in self._types:
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{self._types[name].__name__}, cannot become a family"
                )
            family = self._families[name] = cls(self, name, label)
            self._types[name] = kind
        elif type(family) is not cls or family.label != label:
            raise ObservabilityError(
                f"metric {name!r} is a {type(family).__name__} over "
                f"{family.label!r}, not a {cls.__name__} over {label!r}"
            )
        return family

    def _member(self, family: _Family, labels: Dict[str, object]) -> object:
        if list(labels) != [family.label]:
            raise ObservabilityError(
                f"family {family.name!r} is labelled by {family.label!r} alone, "
                f"got {sorted(labels)}"
            )
        try:
            value = operator.index(labels[family.label])
        except TypeError:
            raise ObservabilityError(
                f"family {family.name!r}: label {family.label!r} takes ints"
            ) from None
        self.register([(family, value)])
        return family.members[family._slot[value]]

    def register(
        self, sightings: Iterable[Tuple[_Family, int]], *, at: Optional[int] = None
    ) -> None:
        """Register a member for each ``(family, label value)`` pair not
        seen before, in order, at position *at* of the registry's order
        (which ``instruments()`` and the exporters follow; default: the
        end)."""
        new = []
        for family, value in sightings:
            member = family._new(operator.index(value))
            if member is not None:
                new.append((member._key, member))
        if at is None or at >= len(self._metrics):
            self._metrics.update(new)
        else:
            items = list(self._metrics.items())
            self._metrics = dict(items[:at] + new + items[at:])

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
