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
  ``round``; the ids are stamped when the log is read);
* ``columns(kind, *cols)`` — the same rows given as one sequence (a list
  or a numpy array) per field, ``cols[f][i]`` being row *i*'s field *f*;
  a ``Tuple[int, ...]`` field may come as a :class:`Ragged` pair.  The
  hot sites (the engine's dispatch and landings, the receiver's commits,
  the SLO ledger) write columns;
* ``interleave(order, *blocks)`` — rows of several kinds in one call:
  each block is a ``(kind, cols)`` pair and ``order[i]`` the block of row
  *i* (the column pass writes a run of racks' PRIORITY, matching,
  REQUEST and ACK rows this way);
* ``emit(event)`` — record one built :class:`~repro.obs.events.TraceEvent`
  (the rare sites: faults, fallback, model selection, the centralized
  planner); a thin call into the same store;
* ``begin_round(index)`` — round boundary; implementations stamp every
  subsequent event's ``round`` field with *index*.

:data:`NULL_TRACER` is the shared disabled singleton every constructor
defaults to; :class:`RecordingTracer` keeps a column store in memory,
read as events through its :class:`TraceLog` (tests, notebooks, the
benchmark); :class:`JsonlTracer` is the same store, written to a
JSON-lines file a round at a time (the CLI's ``--trace PATH``).

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
from bisect import bisect_left, bisect_right
from dataclasses import fields
from itertools import accumulate, chain, islice, repeat
from operator import is_, itemgetter
from typing import (
    IO,
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    get_type_hints,
    runtime_checkable,
)

import numpy as np

from repro.obs.correlate import LifecycleStitcher
from repro.obs.events import TraceEvent

__all__ = [
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "TraceLog",
    "JsonlTracer",
    "Ragged",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "load_trace",
]

TRACE_SCHEMA_VERSION = 2
"""Current JSONL trace schema: v2 adds the header line and the
``trace_id``/``parent_id`` correlation fields."""


class Ragged(NamedTuple):
    """A ``Tuple[int, ...]`` column as flat values and row pointers: row
    *j* is ``tuple(values[ptr[j]:ptr[j + 1]])`` (lists or numpy arrays)."""

    values: Any
    ptr: Any


@runtime_checkable
class Tracer(Protocol):
    """Structural type every tracer implementation satisfies."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def record(self, kind: type, *rows: tuple) -> None:  # pragma: no cover
        ...

    def columns(self, kind: type, *cols: Any) -> None:  # pragma: no cover
        ...

    def interleave(self, order: Any, *blocks: tuple) -> None:  # pragma: no cover
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

    def columns(self, kind: type, *cols: Any) -> None:
        pass

    def interleave(self, order: Any, *blocks: tuple) -> None:
        pass

    def begin_round(self, index: int) -> None:
        pass


NULL_TRACER = NullTracer()
"""Shared module-level disabled tracer (the default everywhere)."""


# ---------------------------------------------------------------------- #
# columns: one per field of a kind, its type chosen from the annotation
# ---------------------------------------------------------------------- #
_BLOCK = 4096  # rows a read or a stitch pass takes at a time
_NONE = type(None)
_ZERO_FOR_NONE = {None: 0}.get  # (v, v) -> 0 for None, else v


def _listed(values) -> list:
    """*values* as a list: a numpy array as its ``tolist()``."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return values if isinstance(values, list) else list(values)


def _length(values) -> int:
    return len(values.ptr) - 1 if isinstance(values, Ragged) else len(values)


def _packed(values, dtype: np.dtype) -> bool:
    """Whether *values* is a 1-d numpy array of exactly *dtype*, copied
    into a typed column as bytes."""
    return isinstance(values, np.ndarray) and values.dtype == dtype and values.ndim == 1


class _Values:
    """Any field: the values as given, in a list.  A typed column becomes
    one when a value outside its type arrives, so every value written
    reads back as it was."""

    def __init__(self, values: Optional[list] = None) -> None:
        self.values = [] if values is None else values

    def write(self, values, n: int):
        if isinstance(values, Ragged):
            values = _tuples(values)
        self.values += _listed(values)
        return self

    def add(self, value):
        self.values.append(value)
        return self

    def read(self, lo: int, hi: int):
        return self.values[lo:hi]

    def buffers(self) -> tuple:
        return (self.values,)


class _Numbers:
    """An ``int``, ``float`` or ``bool`` field: one typed array.  A value
    whose type is not exactly the annotation's makes it a list."""

    typecode = "q"
    dtype = np.dtype(np.int64)
    exact = frozenset({int})

    def __init__(self) -> None:
        self.buf = array(self.typecode)

    def write(self, values, n: int):
        if _packed(values, self.dtype):
            self.buf.frombytes(values.tobytes())
            return self
        values = _listed(values)
        if set(map(type, values)) <= self.exact:
            try:
                more = array(self.typecode, values)
            except OverflowError:
                pass
            else:
                self.buf += more
                return self
        return _Values(list(self.read(0, len(self.buf))) + values)

    def add(self, value):
        """Append one row's value (what ``write`` does with one row)."""
        if type(value) in self.exact:
            try:
                self.buf.append(value)
            except OverflowError:
                pass
            else:
                return self
        return self.write([value], 1)

    def read(self, lo: int, hi: int):
        return self.buf[lo:hi]

    def buffers(self) -> tuple:
        return (self.buf,)


class _Floats(_Numbers):
    typecode = "d"
    dtype = np.dtype(np.float64)
    exact = frozenset({float})


class _Bools(_Numbers):
    typecode = "b"
    dtype = np.dtype(np.bool_)
    exact = frozenset({bool})

    def read(self, lo: int, hi: int):
        return map(bool, self.buf[lo:hi])


def _or_none(value: int, none: int) -> Optional[int]:
    return None if none else value


class _OptionalInts(_Numbers):
    """An ``Optional[int]`` field: an int array and a None mask."""

    exact = frozenset({int, _NONE})

    def __init__(self) -> None:
        super().__init__()
        self.none = array("b")

    def write(self, values, n: int):
        if _packed(values, self.dtype):
            self.buf.frombytes(values.tobytes())
            self.none.frombytes(bytes(n))
            return self
        values = _listed(values)
        types = set(map(type, values))
        if types == {_NONE}:
            self.buf.frombytes(bytes(8 * n))
            self.none.frombytes(b"\x01" * n)
            return self
        if types <= self.exact:
            try:
                more = array(
                    "q", values if types == {int}
                    else map(_ZERO_FOR_NONE, values, values)
                )
            except OverflowError:
                pass
            else:
                self.buf += more
                self.none.frombytes(
                    bytes(map(is_, values, repeat(None))) if _NONE in types
                    else bytes(n)
                )
                return self
        return _Values(list(self.read(0, len(self.buf))) + values)

    def add(self, value):
        if value is None:
            self.buf.append(0)
            self.none.append(1)
            return self
        if type(value) is int:
            try:
                self.buf.append(value)
            except OverflowError:
                pass
            else:
                self.none.append(0)
                return self
        return self.write([value], 1)

    def read(self, lo: int, hi: int):
        return map(_or_none, self.buf[lo:hi], self.none[lo:hi])

    def buffers(self) -> tuple:
        return self.buf, self.none


class _Texts:
    """A ``str`` field: codes into the column's own string table."""

    def __init__(self) -> None:
        self.codes = array("I")
        self.table: List[str] = []
        self.index: Dict[str, int] = {}

    def write(self, values, n: int):
        values = _listed(values)
        # only a str takes the table: an equal str subclass would read
        # back as the table's plain str
        if not set(map(type, values)) <= {str}:
            return self._spill(values)
        index = self.index
        try:
            more = array("I", map(index.__getitem__, values))
        except KeyError:  # a string the table does not hold yet
            for value in values:
                if value not in index:
                    index[value] = len(self.table)
                    self.table.append(value)
            more = array("I", map(index.__getitem__, values))
        self.codes += more
        return self

    def add(self, value):
        code = self.index.get(value) if type(value) is str else None
        if code is None:
            return self.write([value], 1)
        self.codes.append(code)
        return self

    def _spill(self, values: list) -> _Values:
        return _Values(list(self.read(0, len(self.codes))) + values)

    def read(self, lo: int, hi: int):
        return map(self.table.__getitem__, self.codes[lo:hi])

    def buffers(self) -> tuple:
        return self.codes, self.table


def _bounded(values: Ragged) -> bool:
    """Whether *values*' pointers are there, never fall and stay within
    ``0..len(values.values)``."""
    ptr = np.asarray(values.ptr)
    return bool(
        len(ptr)
        and ptr[0] >= 0
        and ptr[-1] <= len(values.values)
        and not (ptr[1:] < ptr[:-1]).any()
    )


def _tuples(values: Ragged) -> List[tuple]:
    """A :class:`Ragged` column as one tuple per row."""
    flat, ptr = _listed(values.values), _listed(values.ptr)
    return [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])]


class _IntTuples:
    """A ``Tuple[int, ...]`` field: every row's ints in one flat array,
    and each row's end in it."""

    def __init__(self) -> None:
        self.flat = array("q")
        self.ends = array("Q")

    def write(self, values, n: int):
        base = len(self.flat)
        if isinstance(values, Ragged):
            ptr = np.asarray(values.ptr, dtype=np.int64)
            flat = values.values[int(ptr[0]) : int(ptr[-1])]
            if _packed(flat, _Numbers.dtype):
                self.flat.frombytes(flat.tobytes())
                self.ends += array("Q", (ptr[1:] - ptr[0] + base).tolist())
                return self
            values = _tuples(values)
        values = _listed(values)
        if set(map(type, values)) <= {tuple}:
            flat = list(chain.from_iterable(values))
            if set(map(type, flat)) <= {int}:
                try:
                    more = array("q", flat)
                except OverflowError:
                    pass
                else:
                    self.flat += more
                    self.ends += array(
                        "Q", islice(accumulate(map(len, values), initial=base), 1, None)
                    )
                    return self
        return _Values(list(self.read(0, len(self.ends))) + values)

    def add(self, value):
        return self.write([value], 1)

    def read(self, lo: int, hi: int):
        if hi <= lo:
            return iter(())
        first = self.ends[lo - 1] if lo else 0
        ends = [end - first for end in self.ends[lo:hi]]
        flat = self.flat[first : first + ends[-1]].tolist()
        return (tuple(flat[a:b]) for a, b in zip(chain((0,), ends), ends))

    def buffers(self) -> tuple:
        return self.flat, self.ends


_COLUMNS = {
    int: _Numbers,
    float: _Floats,
    bool: _Bools,
    str: _Texts,
    Optional[int]: _OptionalInts,
    Tuple[int, ...]: _IntTuples,
}
"""Field annotation -> column type; any other annotation is a list."""

_HEAD = ("round", "trace_id", "parent_id")


class _Kind:
    """One event class's rows: a column per own field, in field order."""

    def __init__(self, cls: type, code: int, rule) -> None:
        names = [f.name for f in fields(cls)]
        if tuple(names[: len(_HEAD)]) != _HEAD:
            raise TypeError(f"{cls.__name__} is not a TraceEvent")
        hints = get_type_hints(cls)
        self.cls, self.code = cls, code
        self.names = names[len(_HEAD) :]
        self._makers = [_COLUMNS.get(hints[name], _Values) for name in self.names]
        # the stitcher's rule, its fields as column indices
        self.rule = None if rule is None else (
            rule[0],
            self.names.index(rule[1]),
            None if rule[2] is None else self.names.index(rule[2]),
        )
        self.clear()

    def clear(self) -> None:
        self.cols = [make() for make in self._makers]

    def check(self, cols: Sequence[Any], n: int) -> None:
        """Refuse columns that do not hold *n* rows of this kind."""
        if len(cols) != len(self.cols):
            raise TypeError(
                f"{self.cls.__name__} rows take {len(self.cols)} fields, "
                f"got {len(cols)} columns"
            )
        for name, values in zip(self.names, cols):
            if isinstance(values, Ragged) and not _bounded(values):
                raise ValueError(
                    f"{self.cls.__name__}.{name}: pointers do not run "
                    f"forward within {len(values.values)} values"
                )
            if _length(values) != n:
                raise ValueError(
                    f"{self.cls.__name__}.{name}: {_length(values)} values "
                    f"for {n} rows"
                )

    def write(self, cols: Sequence[Any], n: int) -> None:
        self.cols = [col.write(values, n) for col, values in zip(self.cols, cols)]

    def add(self, row: Sequence[Any]) -> None:
        """Append one row of as many values as columns (``write`` of one
        row)."""
        self.cols = [col.add(value) for col, value in zip(self.cols, row)]

    def read(self, lo: int, hi: int) -> Iterator[tuple]:
        """Rows ``lo:hi`` of this kind, each as its own field values."""
        if not self.cols:
            return repeat((), hi - lo)
        return zip(*(col.read(lo, hi) for col in self.cols))

    def keys(self, lo: int, hi: int) -> Optional[Iterator[tuple]]:
        """The ``(key, second)`` values the stitcher reads from rows
        ``lo:hi``, or ``None`` for a kind it leaves unstamped."""
        if self.rule is None:
            return None
        _, key, second = self.rule
        return zip(
            self.cols[key].read(lo, hi),
            repeat(None) if second is None else self.cols[second].read(lo, hi),
        )


class TraceLog(Sequence[TraceEvent]):
    """Read-only view of a :class:`RecordingTracer`'s rows, as events.

    ``len``, indexing (negative too), slicing and iteration build each
    event from its row when read: a fresh object every time, equal to the
    event as it was recorded, its ids stamped.  A log compares equal to
    another log or to a list of the same events.  ``len`` stamps nothing;
    every other read first stamps the rows recorded since the last one.
    An index reads from the start of the block of rows that holds it.
    """

    def __init__(self, tracer: "RecordingTracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._codes)

    def __getitem__(self, i):
        t = self._tracer
        n = len(t._codes)
        if isinstance(i, slice):
            rows = range(*i.indices(n))
            if not rows:
                return []
            lo = min(rows[0], rows[-1])
            events = list(t._events(lo, max(rows[0], rows[-1]) + 1))
            return [events[j - lo] for j in rows]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace log index out of range")
        return next(t._events(i, i + 1))

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._tracer._events(0, len(self))

    def __eq__(self, other) -> bool:
        if isinstance(other, (TraceLog, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceLog(events={len(self)})"


class RecordingTracer:
    """In-memory tracer: a column store, read as events through :attr:`events`.

    Each kind keeps one column per own field, typed from the dataclass
    annotation: ``int`` an ``array('q')``, ``float`` an ``array('d')``,
    ``bool`` an ``array('b')`` read back as ``bool``, ``Optional[int]``
    an int array and a None mask, ``str`` codes into the column's string
    table, ``Tuple[int, ...]`` flat ints and row ends; any other field is
    a list.  A value whose type is not exactly its field's (a ``bool`` or
    ``None`` in an ``int`` field, a numpy scalar, an ``int`` in a
    ``float`` field) turns that column into a list of the values as
    given, so every value reads back as it was written, never converted.
    A row is its kind code, one ``array('H')`` entry; it carries no
    ``round``, which the :meth:`begin_round` boundaries give (an emitted
    event whose ``round`` or ids the boundaries do not give keeps them
    beside the store).  :meth:`record`, :meth:`columns` and
    :meth:`interleave` append rows from field values; :meth:`emit` stamps
    a built event's ``round`` when unset and snapshots it into one row.
    No event object is kept, so a record is the event *as it was at emit
    time*: changing the object afterwards does not change the log, and
    each read builds a new, equal object.

    The correlation ids are written into two side lists, one slot per
    row, by one stitcher pass over the rows not yet stamped, on the first
    read after new rows (or on :meth:`clear`, which stamps before it
    drops, so ids read later carry on from the dropped rows).  The pass
    reads its keys from the kinds' columns, a block of rows at a time.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.current_round: Optional[int] = None
        self._stitcher = LifecycleStitcher()
        self._codes = array("H")  # each row's kind code
        self._kinds: List[_Kind] = []  # kind code -> its columns
        self._by_class: Dict[type, _Kind] = {}
        self._round0: Optional[int] = None  # the round before any boundary
        # (row index, round) of each begin_round since the last clear
        self._bounds: List[Tuple[int, Optional[int]]] = []
        self._marked = 0  # boundaries the stitcher has seen
        # the rows of emitted events whose head the boundaries do not give,
        # in row order, and each one's (round, trace_id, parent_id)
        self._preset_rows: List[int] = []
        self._preset_heads: List[tuple] = []
        # each kind's rows before row j * _BLOCK, at j (a kind made since
        # has none)
        self._starts: List[List[int]] = [[]]
        self._trace: List[Optional[str]] = []  # stamped rows' ids
        self._parent: List[Optional[str]] = []
        self._log = TraceLog(self)

    @property
    def events(self) -> TraceLog:
        """Every recorded event, in emission order (a read-only view)."""
        return self._log

    def begin_round(self, index: int) -> None:
        self.current_round = index
        self._bounds.append((len(self._codes), index))

    def _kind(self, cls: type) -> _Kind:
        kind = self._by_class.get(cls)
        if kind is None:
            rule = self._stitcher.rule(cls)
            kind = self._by_class[cls] = _Kind(cls, len(self._kinds), rule)
            self._kinds.append(kind)
        return kind

    # ------------------------------------------------------------------ #
    def record(self, kind: type, *rows: tuple) -> None:
        if not rows:
            return
        k = self._by_class.get(kind) or self._kind(kind)
        if set(map(len, rows)) != {len(k.cols)}:
            raise TypeError(f"{kind.__name__} rows take {len(k.cols)} fields")
        for row in rows:
            k.add(row)
            self._codes.append(k.code)

    def columns(self, kind: type, *cols: Any) -> None:
        k = self._kind(kind)
        n = _length(cols[0]) if cols else 0
        k.check(cols, n)
        if n:
            k.write(cols, n)
            self._codes += array("H", (k.code,)) * n

    def interleave(self, order: Any, *blocks: tuple) -> None:
        order = np.asarray(order, dtype=np.intp)
        kinds = [self._kind(kind) for kind, _ in blocks]
        if len(set(map(id, kinds))) < len(kinds):
            raise ValueError("a kind can fill only one block of an interleave")
        counts = np.bincount(order, minlength=len(kinds)).tolist()
        if len(counts) > len(kinds):
            raise ValueError(f"order names block {len(counts) - 1} of {len(kinds)}")
        for k, (_, cols), n in zip(kinds, blocks, counts):
            k.check(cols, n)
        for k, (_, cols), n in zip(kinds, blocks, counts):
            if n:
                k.write(cols, n)
        codes = np.array([k.code for k in kinds], dtype=np.uint16)[order]
        self._codes.frombytes(codes.tobytes())

    def emit(self, event: TraceEvent) -> None:
        k = self._kind(type(event))
        if event.round is None:
            event.round = self.current_round
        k.add([getattr(event, name) for name in k.names])
        self._codes.append(k.code)
        head = (event.round, event.trace_id, event.parent_id)
        if head != (self.current_round, None, None):
            self._preset_rows.append(len(self._codes) - 1)
            self._preset_heads.append(head)

    # ------------------------------------------------------------------ #
    def _blocks(self, lo: int, hi: int, pick):
        """``(first row, end, codes, {code: pick(kind, a, b)})`` for each
        block of rows ``lo:hi`` (one empty block when there are none),
        where ``a:b`` are the kind's own rows in the block."""
        kinds = self._kinds
        pos = self._pos(lo)
        for b in range(lo, hi, _BLOCK) if hi > lo else (lo,):
            e = min(b + _BLOCK, hi)
            codes = self._codes[b:e]
            counts = np.bincount(
                np.frombuffer(codes, dtype=np.uint16), minlength=len(kinds)
            ).tolist()
            picked = {}
            for code, c in enumerate(counts):
                if c:
                    it = pick(kinds[code], pos[code], pos[code] + c)
                    if it is not None:
                        picked[code] = it
                    pos[code] += c
            yield b, e, codes, picked

    def _pos(self, lo: int) -> List[int]:
        """Each kind's rows before row *lo*, counted from the nearest
        block start at or before it."""
        starts, codes, width = self._starts, self._codes, len(self._kinds)
        j = lo // _BLOCK
        while len(starts) <= j:  # the blocks now complete, counted once
            b = (len(starts) - 1) * _BLOCK
            last = starts[-1] + [0] * (width - len(starts[-1]))
            more = np.bincount(
                np.frombuffer(codes[b : b + _BLOCK], dtype=np.uint16),
                minlength=width,
            ).tolist()
            starts.append(list(map(int.__add__, last, more)))
        rest = np.bincount(
            np.frombuffer(codes[j * _BLOCK : lo], dtype=np.uint16), minlength=width
        ).tolist()
        start = starts[j] + [0] * (width - len(starts[j]))
        return list(map(int.__add__, start, rest))

    def _presets(self, lo: int, hi: int) -> Iterator[Tuple[int, tuple]]:
        """``(row, head)`` of the preset heads in rows ``lo:hi``."""
        rows = self._preset_rows
        if not rows:
            return iter(())
        a, b = bisect_left(rows, lo), bisect_left(rows, hi)
        return zip(rows[a:b], self._preset_heads[a:b])

    def _rounds(self, lo: int, hi: int) -> List[Optional[int]]:
        """Each of rows ``lo:hi``'s ``round``."""
        bounds = self._bounds
        k = bisect_right(bounds, lo, key=itemgetter(0))
        current = bounds[k - 1][1] if k else self._round0
        out: List[Optional[int]] = []
        at = lo
        for row, index in islice(bounds, k, None):
            if row >= hi:
                break
            out += [current] * (row - at)
            at, current = row, index
        out += [current] * (hi - at)
        for row, head in self._presets(lo, hi):
            out[row - lo] = head[0]
        return out

    def _stitch(self) -> None:
        """Stamp the ids of the rows recorded since the last stitch."""
        n, begin = len(self._codes), len(self._trace)
        marks = self._bounds[self._marked :]
        if begin == n and not marks:
            return
        self._marked = len(self._bounds)
        rules = [kind.rule for kind in self._kinds]
        for lo, hi, codes, keys in self._blocks(begin, n, _Kind.keys):
            trace, parent = [None] * (hi - lo), [None] * (hi - lo)
            for row, (_, tid, pid) in self._presets(lo, hi):
                trace[row - lo], parent[row - lo] = tid, pid
            here = [
                (at - lo, index) for at, index in marks
                if lo <= at < hi or at == hi == n
            ]
            self._stitcher.stitch(codes, keys, rules, here, trace, parent)
            self._trace += trace
            self._parent += parent

    def _events(self, lo: int, hi: int, wanted=None) -> Iterator[TraceEvent]:
        """Rows ``lo:hi`` as events, stamped (only kinds in *wanted*)."""
        self._stitch()
        kinds = self._kinds
        if wanted is None:
            pick = _Kind.read
        else:
            def pick(kind: _Kind, a: int, b: int):
                return kind.read(a, b) if kind.code in wanted else None
        for b, e, codes, rows in self._blocks(lo, hi, pick):
            if not rows:
                continue
            heads = zip(self._rounds(b, e), self._trace[b:e], self._parent[b:e])
            for code, head in zip(codes, heads):
                it = rows.get(code)
                if it is not None:
                    yield kinds[code].cls(*head, *next(it))

    def _buffers(self) -> Iterator[Any]:
        """Every buffer the store holds rows in: the codes, each column's
        arrays, lists and string tables, and the two id lists."""
        yield self._codes
        for kind in self._kinds:
            for col in kind.cols:
                yield from col.buffers()
        yield self._trace
        yield self._parent

    # ------------------------------------------------------------------ #
    def kinds(self) -> List[str]:
        """Event type names in emission order (builds no event)."""
        names = [kind.cls.__name__ for kind in self._kinds]
        return [names[code] for code in self._codes]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one type, in emission order (builds only those)."""
        wanted = {k.code for k in self._kinds if k.cls.__name__ == kind}
        if not wanted:
            self._stitch()
            return []
        return list(self._events(0, len(self._codes), wanted))

    def clear(self) -> None:
        self._stitch()
        del self._codes[:]
        for kind in self._kinds:
            kind.clear()
        self._round0 = self.current_round
        self._bounds.clear()
        self._marked = 0
        self._preset_rows.clear()
        self._preset_heads.clear()
        self._starts = [[]]
        self._trace.clear()
        self._parent.clear()


class JsonlTracer(RecordingTracer):
    """Streaming tracer: one JSON object per line on *stream*.

    The same column store as :class:`RecordingTracer`, holding at most one
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
