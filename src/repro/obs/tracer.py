"""Tracer protocol and implementations.

The tracer contract is deliberately tiny so it can be threaded through
every layer without coupling:

* ``enabled`` — emitting sites guard their tracing work behind this
  flag, so a disabled tracer costs one attribute read per site and zero
  allocations (the zero-cost-when-disabled property);
* ``record(kind, *rows)`` — record one event of class *kind* per row, in
  order, without building the events: a row is the kind's own field
  values in ``dataclasses.fields`` order, after the three
  :class:`~repro.obs.events.TraceEvent` fields (the tracer stamps
  ``round``; the ids are stamped when the log is read).  The hot sites
  (the engine's dispatch and landings, the shim's PRIORITY(F, 1) picks,
  the REQUEST loop, the receiver's verdicts and commits, the SLO ledger)
  record rows;
* ``emit(event)`` — record one built :class:`~repro.obs.events.TraceEvent`
  (the rare sites: faults, fallback, model selection, the centralized
  planner); a thin call into the same row log;
* ``begin_round(index)`` — round boundary; implementations stamp every
  subsequent event's ``round`` field with *index*.

:data:`NULL_TRACER` is the shared disabled singleton every constructor
defaults to; :class:`RecordingTracer` keeps a row log in memory, read as
events through its :class:`TraceLog` (tests, notebooks, the benchmark);
:class:`JsonlTracer` is the same row log, written to a JSON-lines file a
round at a time (the CLI's ``--trace PATH``).

Both enabled tracers stamp ``trace_id``/``parent_id`` when their rows are
read, with a :class:`~repro.obs.correlate.LifecycleStitcher` pass over the
rows recorded since the last read, so the flat stream carries per-attempt
causal chains while the round pays only for appending rows.

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
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.obs.correlate import LifecycleStitcher
from repro.obs.events import TraceEvent

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
    """Structural type every tracer implementation satisfies."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def record(self, kind: type, *rows: tuple) -> None:  # pragma: no cover
        ...

    def begin_round(self, index: int) -> None:  # pragma: no cover - protocol
        ...


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Emitting sites check ``tracer.enabled`` before building an event or a
    row, so the per-site cost of the null tracer is one attribute read.
    """

    enabled: bool = False

    def emit(self, event: TraceEvent) -> None:
        pass

    def record(self, kind: type, *rows: tuple) -> None:
        pass

    def begin_round(self, index: int) -> None:
        pass


NULL_TRACER = NullTracer()
"""Shared module-level disabled tracer (the default everywhere)."""


class TraceLog(Sequence[TraceEvent]):
    """Read-only view of a :class:`RecordingTracer`'s rows, as events.

    ``len``, indexing (negative too), slicing and iteration build each
    event from its row when read: a fresh object every time, equal to the
    event as it was recorded, its ids stamped.  A log compares equal to
    another log or to a list of the same events.  ``len`` stamps nothing;
    every other read first stamps the rows recorded since the last one.
    """

    def __init__(self, tracer: "RecordingTracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._codes)

    def __getitem__(self, i):
        t = self._tracer
        n = len(t._codes)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace log index out of range")
        t._stitch()
        starts = t._starts
        end = starts[i + 1] if i + 1 < n else len(t._values)
        return t._kinds[t._codes[i]](*t._values[starts[i] : end])

    def __iter__(self) -> Iterator[TraceEvent]:
        t = self._tracer
        kinds, values = t._kinds, t._values
        for code, start, end in t._rows():
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

    A row is a kind code and the event's field values in
    ``dataclasses.fields`` order, appended to one flat value list.
    :meth:`record` appends rows from field tuples, ``round`` stamped with
    the current round; :meth:`emit` stamps a built event's ``round`` when
    unset and snapshots it into one row.  No event object is kept, so a
    record is the event *as it was at emit time*: changing the object
    afterwards does not change the log, and each read builds a new, equal
    object.  Field values are atoms (``int``, ``float``, ``str``,
    ``None``) or tuples of them, and a row is no container of its own, so
    a long run's log leaves the garbage collector nothing new to walk.

    ``begin_round`` also marks its row index.  The correlation ids are
    written into each row's two slots by one stitcher pass over the rows
    not yet stamped, on the first read after new rows (or on
    :meth:`clear`, which stamps before it drops, so ids read later carry
    on from the dropped rows).
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.current_round: Optional[int] = None
        self._stitcher = LifecycleStitcher()
        self._codes = array("H")  # each row's kind code
        self._starts = array("Q")  # each row's first index into _values
        self._values: List[Any] = []  # every row's field values, in order
        self._kinds: List[type] = []  # kind code -> event class
        self._rules: List[Any] = []  # kind code -> stitcher rule or None
        # event class -> (kind code, field-values getter)
        self._entries: Dict[type, tuple] = {}
        # (row index, round) of each begin_round the stitcher has not seen
        self._marks: List[tuple] = []
        self._stamped = 0  # rows before this index carry their ids
        self._log = TraceLog(self)

    @property
    def events(self) -> TraceLog:
        """Every recorded event, in emission order (a read-only view)."""
        return self._log

    def begin_round(self, index: int) -> None:
        self.current_round = index
        self._marks.append((len(self._codes), index))

    def _register(self, cls: type) -> tuple:
        entry = self._entries[cls] = (
            len(self._kinds),
            attrgetter(*(f.name for f in fields(cls))),
        )
        self._kinds.append(cls)
        self._rules.append(self._stitcher.rule(cls))
        return entry

    def record(self, kind: type, *rows: tuple) -> None:
        entry = self._entries.get(kind) or self._register(kind)
        self._append(entry[0], (self.current_round, None, None), rows)

    def emit(self, event: TraceEvent) -> None:
        code, row = self._entries.get(type(event)) or self._register(type(event))
        if event.round is None:
            event.round = self.current_round
        self._append(code, (), (row(event),))

    def _append(self, code: int, head: tuple, rows) -> None:
        codes, starts, values = self._codes, self._starts, self._values
        for row in rows:
            codes.append(code)
            starts.append(len(values))
            values += head
            values += row

    def _stitch(self) -> None:
        """Stamp the ids of the rows recorded since the last stitch."""
        n = len(self._codes)
        if self._stamped == n and not self._marks:
            return
        self._stitcher.stitch(
            self._codes, self._starts, self._values, self._rules,
            self._stamped, n, self._marks,
        )
        self._marks.clear()
        self._stamped = n

    def _rows(self) -> Iterator[tuple]:
        """``(kind code, first value, end)`` of every row, in order, stamped."""
        self._stitch()
        ends = chain(islice(self._starts, 1, None), (len(self._values),))
        return zip(self._codes, self._starts, ends)

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
            for code, start, end in self._rows()
            if code in wanted
        ]

    def clear(self) -> None:
        self._stitch()
        del self._codes[:]
        del self._starts[:]
        del self._values[:]
        self._stamped = 0


class JsonlTracer(RecordingTracer):
    """Streaming tracer: one JSON object per line on *stream*.

    The same row log as :class:`RecordingTracer`, holding at most one
    round: at each :meth:`begin_round` and at :meth:`close` the rows
    recorded so far are stamped, written (``json.dumps(event.as_dict())``
    of each) and dropped.  The first line written is the schema header
    ``{"schema_version": 2}``.  The stream is flushed at each
    :meth:`begin_round`, so a crashed or faulted run leaves complete
    rounds on disk.

    Parameters
    ----------
    stream:
        Open text file object; the caller owns it unless this tracer was
        built with :meth:`open`, in which case :meth:`close` closes it.
        Either way :meth:`close` (or the context manager) writes the last
        round.
    """

    def __init__(self, stream: IO[str]) -> None:
        super().__init__()
        self.stream = stream
        self._owns_stream = False
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

    def _write(self) -> None:
        """Write the rows held, stamped, to the stream; then drop them."""
        write = self.stream.write
        for event in self.events:
            write(json.dumps(event.as_dict()) + "\n")
        self.clear()

    def begin_round(self, index: int) -> None:
        self._write()
        super().begin_round(index)
        self.stream.flush()

    def close(self) -> None:
        self._write()
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
