"""Tracer protocol and implementations.

The tracer contract is deliberately tiny so it can be threaded through
every layer without coupling:

* ``enabled`` — emitting sites guard event *construction* behind this
  flag, so a disabled tracer costs one attribute read per site and zero
  allocations (the zero-cost-when-disabled property);
* ``emit(event)`` — record one :class:`~repro.obs.events.TraceEvent`;
* ``emit_deliveries(alerts)`` — record one
  :class:`~repro.obs.events.AlertDelivered` per alert, in order: what
  ``emit`` of each would record, in one call (the engine's ``dispatch``
  stage hands a round's deliveries over this way);
* ``begin_round(index)`` — round boundary; implementations stamp every
  subsequent event's ``round`` field with *index*.

:data:`NULL_TRACER` is the shared disabled singleton every constructor
defaults to; :class:`RecordingTracer` keeps a row log in memory, read as
events through its :class:`TraceLog` (tests, notebooks, the benchmark);
:class:`JsonlTracer` streams events to a JSON-lines file (the CLI's
``--trace PATH``).

Both enabled tracers run a
:class:`~repro.obs.correlate.LifecycleStitcher` in their ``emit`` path,
stamping ``trace_id``/``parent_id`` onto every event so the flat stream
carries per-attempt causal chains.

JSONL traces written by :class:`JsonlTracer` start with a header line
``{"schema_version": 2}``; :func:`load_trace` reads them back (header or
no header) as a list of event dicts for the ``repro trace`` CLI.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import fields
from itertools import chain, islice
from operator import attrgetter
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.obs.correlate import LifecycleStitcher
from repro.obs.events import AlertDelivered, TraceEvent

__all__ = [
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "TraceLog",
    "JsonlTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "load_trace",
]

TRACE_SCHEMA_VERSION = 2
"""Current JSONL trace schema: v2 adds the header line and the
``trace_id``/``parent_id`` correlation fields."""


@runtime_checkable
class Tracer(Protocol):
    """Structural type every tracer implementation satisfies.

    ``emit_deliveries`` takes alerts as anything with ``rack``, ``kind``
    (an enum: its ``name`` is recorded), ``magnitude``, ``host`` and
    ``switch`` attributes.
    """

    enabled: bool

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def emit_deliveries(self, alerts: Iterable[Any]) -> None:  # pragma: no cover
        ...

    def begin_round(self, index: int) -> None:  # pragma: no cover - protocol
        ...


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Emitting sites check ``tracer.enabled`` before building an event, so
    the per-site cost of the null tracer is one attribute read.
    """

    enabled: bool = False

    def emit(self, event: TraceEvent) -> None:
        pass

    def emit_deliveries(self, alerts: Iterable[Any]) -> None:
        pass

    def begin_round(self, index: int) -> None:
        pass


NULL_TRACER = NullTracer()
"""Shared module-level disabled tracer (the default everywhere)."""


class TraceLog(Sequence[TraceEvent]):
    """Read-only view of a :class:`RecordingTracer`'s rows, as events.

    ``len``, indexing (negative too), slicing and iteration build each
    event from its row when read: a fresh object every time, equal to the
    event as it was emitted.  A log compares equal to another log or to a
    list of the same events.
    """

    def __init__(
        self, codes: array, starts: array, values: List[Any], kinds: List[type]
    ) -> None:
        self._codes = codes
        self._starts = starts
        self._values = values
        self._kinds = kinds

    def __len__(self) -> int:
        return len(self._codes)

    def _rows(self) -> Iterator[tuple]:
        """``(kind code, first value, end)`` of every row, in order."""
        ends = chain(islice(self._starts, 1, None), (len(self._values),))
        return zip(self._codes, self._starts, ends)

    def __getitem__(self, i):
        n = len(self._codes)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace log index out of range")
        starts = self._starts
        end = starts[i + 1] if i + 1 < n else len(self._values)
        return self._kinds[self._codes[i]](*self._values[starts[i] : end])

    def __iter__(self) -> Iterator[TraceEvent]:
        kinds, values = self._kinds, self._values
        for code, start, end in self._rows():
            yield kinds[code](*values[start:end])

    def __eq__(self, other) -> bool:
        if isinstance(other, (TraceLog, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceLog(events={len(self)})"


class RecordingTracer:
    """In-memory tracer: a row log, read as events through :attr:`events`.

    ``emit`` stamps the event (its ``round`` when unset, its correlation
    ids) and snapshots it into one row: a kind code, and the event's field
    values in ``dataclasses.fields`` order, appended to one flat value
    list.  The event object itself is not kept, so a record is the event
    *as it was at emit time*: changing the object afterwards does not
    change the log, and each read builds a new, equal object.  Field
    values are atoms (``int``, ``float``, ``str``, ``None``) or tuples of
    them, and a row is no container of its own, so a long run's log
    leaves the garbage collector nothing new to walk.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.current_round: Optional[int] = None
        self._stitcher = LifecycleStitcher()
        self._codes = array("H")  # each row's kind code
        self._starts = array("Q")  # each row's first index into _values
        self._values: List[Any] = []  # every row's field values, in order
        self._kinds: List[type] = []  # kind code -> event class
        # event class -> (kind code, stamper or None, field-values getter)
        self._entries: Dict[type, tuple] = {}
        self._log = TraceLog(self._codes, self._starts, self._values, self._kinds)

    @property
    def events(self) -> TraceLog:
        """Every recorded event, in emission order (a read-only view)."""
        return self._log

    def begin_round(self, index: int) -> None:
        self.current_round = index
        self._stitcher.begin_round(index)

    def _register(self, cls: type) -> tuple:
        entry = self._entries[cls] = (
            len(self._kinds),
            self._stitcher.stamper(cls),
            attrgetter(*(f.name for f in fields(cls))),
        )
        self._kinds.append(cls)
        return entry

    def emit(self, event: TraceEvent) -> None:
        entry = self._entries.get(type(event))
        if entry is None:
            entry = self._register(type(event))
        code, stamp, row = entry
        if event.round is None:
            event.round = self.current_round
        if stamp is not None:
            stamp(event)
        values = self._values
        self._codes.append(code)
        self._starts.append(len(values))
        values.extend(row(event))

    def emit_deliveries(self, alerts: Iterable[Any]) -> None:
        # the rows emit(AlertDelivered.of(alert)) would store, without
        # building the events: AlertDelivered's stamp is its rack's
        # alert-group id
        entry = self._entries.get(AlertDelivered) or self._register(AlertDelivered)
        code, rnd, group = entry[0], self.current_round, self._stitcher.group
        codes, starts, values = self._codes, self._starts, self._values
        values_of = AlertDelivered.values_of
        for alert in alerts:
            codes.append(code)
            starts.append(len(values))
            values.extend(values_of(alert, rnd, group(alert.rack)))

    # ------------------------------------------------------------------ #
    def kinds(self) -> List[str]:
        """Event type names in emission order (builds no event)."""
        names = [cls.__name__ for cls in self._kinds]
        return [names[code] for code in self._codes]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one type, in emission order (builds only those)."""
        kinds, values = self._kinds, self._values
        wanted = {code for code, cls in enumerate(kinds) if cls.__name__ == kind}
        return [
            kinds[code](*values[start:end])
            for code, start, end in self._log._rows()
            if code in wanted
        ]

    def clear(self) -> None:
        del self._codes[:]
        del self._starts[:]
        del self._values[:]


class JsonlTracer:
    """Streaming tracer: one JSON object per line on *stream*.

    The first line written is the schema header
    ``{"schema_version": 2}``; every subsequent line is one event dict.
    The stream is flushed at each :meth:`begin_round`, so a crashed or
    faulted run leaves complete rounds on disk.

    Parameters
    ----------
    stream:
        Open text file object; the caller owns it unless this tracer was
        built with :meth:`open`, in which case :meth:`close` closes it.
    """

    enabled: bool = True

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self.current_round: Optional[int] = None
        self._owns_stream = False
        self.emitted = 0
        self._stitcher = LifecycleStitcher()
        self.stream.write(
            json.dumps({"schema_version": TRACE_SCHEMA_VERSION}) + "\n"
        )

    @classmethod
    def open(cls, path: str) -> "JsonlTracer":
        """Create a tracer writing to *path* (truncates; close with
        :meth:`close` or use as a context manager)."""
        tracer = cls(open(path, "w"))
        tracer._owns_stream = True
        return tracer

    def begin_round(self, index: int) -> None:
        self.current_round = index
        self._stitcher.begin_round(index)
        self.stream.flush()

    def emit(self, event: TraceEvent) -> None:
        if event.round is None:
            event.round = self.current_round
        self._stitcher.stamp(event)
        self.stream.write(json.dumps(event.as_dict()) + "\n")
        self.emitted += 1

    def emit_deliveries(self, alerts: Iterable[Any]) -> None:
        emit = self.emit
        for alert in alerts:
            emit(AlertDelivered.of(alert))

    def close(self) -> None:
        if self._owns_stream:
            self.stream.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back as a list of event dicts.

    Accepts both schema-2 files (leading ``{"schema_version": N}``
    header, which is skipped) and headerless schema-1 files; blank lines
    are ignored.  Raises ``ValueError`` on a header from a future schema
    or on a row without an ``"event"`` key.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if "schema_version" in row and "event" not in row:
                version = row["schema_version"]
                if version > TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}:{lineno}: trace schema_version {version} "
                        f"is newer than supported ({TRACE_SCHEMA_VERSION})"
                    )
                continue
            if "event" not in row:
                raise ValueError(f"{path}:{lineno}: row has no 'event' key")
            events.append(row)
    return events
