"""Profiling hooks: wall-clock section timers with per-round breakdowns.

The engine opens one round window per management round; the migration
machinery wraps its hot stages (``priority``, ``matching``, ``request``,
``commit``, ``reroute``, ``local_search``) in
:meth:`Profiler.section`.  The accumulated seconds surface as
``RoundSummary.timings`` and — via ``Profiler.totals`` — as the CLI's
``--json`` timing breakdown.

With ``Profiler(record_spans=True)`` each section entry/exit is also
recorded as a :class:`Span` — nested, since sections open inside other
sections (``matching`` inside a shim's round inside the engine round) —
and the span list exports to Chrome/Perfetto ``trace_event`` JSON via
:func:`repro.obs.export.chrome_trace`, rendering a round as a
flamegraph.  Span recording is off by default: the flat accumulators
stay the zero-overhead production path.

:data:`NULL_PROFILER` is the disabled singleton: its ``section`` returns
a shared re-entrant no-op context manager, so a disabled profiler costs
one method call and no timer reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER", "Span"]


@dataclass
class Span:
    """One recorded section execution, positioned in the nesting tree.

    ``start``/``duration`` are ``perf_counter`` seconds relative to the
    profiler's construction; ``depth`` is the section-stack depth at
    entry (0 = top level); ``parent`` indexes the enclosing span in
    :attr:`Profiler.spans` (``None`` at top level); ``round`` is the
    management-round index active when the span opened.
    """

    name: str
    start: float
    duration: float
    depth: int
    parent: Optional[int]
    round: Optional[int]


class _NullSection:
    """Shared no-op context manager (re-entrant, stateless)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SECTION = _NullSection()


class NullProfiler:
    """Disabled profiler: sections cost one call, rounds record nothing."""

    enabled: bool = False

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION

    def begin_round(self, index: Optional[int] = None) -> None:
        pass

    def round_timings(self) -> Dict[str, float]:
        return {}

    @property
    def totals(self) -> Dict[str, float]:
        return {}


NULL_PROFILER = NullProfiler()
"""Shared module-level disabled profiler."""


class _Section:
    __slots__ = ("_profiler", "_name", "_t0", "_index")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0
        self._index = -1

    def __enter__(self) -> "_Section":
        self._t0 = perf_counter()
        if self._profiler._record_spans:
            self._index = self._profiler._open_span(self._name, self._t0)
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        self._profiler._add(self._name, t1 - self._t0)
        if self._index >= 0:
            self._profiler._close_span(self._index, t1)


class Profiler:
    """Accumulating wall-clock section timer.

    ``totals`` holds seconds per section since construction; the
    per-round window (``begin_round`` / ``round_timings``) holds the same
    breakdown for the current round only.  With ``record_spans=True``
    every section execution additionally lands on :attr:`spans` as a
    nested :class:`Span` (see :func:`repro.obs.export.chrome_trace`).
    """

    enabled: bool = True

    def __init__(self, *, record_spans: bool = False) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._round: Optional[Dict[str, float]] = None
        self._record_spans = record_spans
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._epoch = perf_counter()
        self.current_round: Optional[int] = None

    @property
    def record_spans(self) -> bool:
        return self._record_spans

    def _add(self, name: str, elapsed: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._round is not None:
            self._round[name] = self._round.get(name, 0.0) + elapsed

    # -- span bookkeeping (only touched when record_spans is on) ------- #
    def _open_span(self, name: str, t0: float) -> int:
        index = len(self.spans)
        self.spans.append(
            Span(
                name=name,
                start=t0 - self._epoch,
                duration=0.0,
                depth=len(self._stack),
                parent=self._stack[-1] if self._stack else None,
                round=self.current_round,
            )
        )
        self._stack.append(index)
        return index

    def _close_span(self, index: int, t1: float) -> None:
        span = self.spans[index]
        span.duration = t1 - self._epoch - span.start
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def section(self, name: str) -> _Section:
        """Context manager timing one block under *name*."""
        return _Section(self, name)

    # ------------------------------------------------------------------ #
    def begin_round(self, index: Optional[int] = None) -> None:
        """Reset the per-round window (engine calls this at round start).

        *index* labels subsequent spans with the management-round number;
        older callers that pass nothing keep round-less spans.
        """
        self._round = {}
        if index is not None:
            self.current_round = index

    def round_timings(self) -> Dict[str, float]:
        """Seconds per section accumulated since ``begin_round``."""
        return dict(self._round) if self._round is not None else {}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready lifetime breakdown."""
        return {
            name: {"seconds": self.totals[name], "calls": self.counts[name]}
            for name in self.totals
        }
