"""Span recording for the per-layer pass.

The span pass times each layer from *outside* the program: wrappers are
installed by this module around the layers' public callables (module
functions are patched in the namespace where the caller looks them up),
they record through one in-memory span list, and :func:`installed`
removes every one of them on exit.  Nothing under ``src/`` changes, and
the plain pass — which the end-to-end numbers come from — never sees a
wrapper.

A span is ``[name, start, end, parent, round]``: ``parent`` indexes the
enclosing span (``-1`` at top level) and ``round`` is the timed round it
belongs to (``-1`` during set-up).  A layer's *self* time is its span
minus the part its child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from functools import wraps
from importlib import import_module
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

NAME, START, END, PARENT, ROUND = range(5)
SETUP_ROUND = -1

WRAPPERS: Tuple[Tuple[str, str, str], ...] = (
    # (module whose namespace is patched, attribute path, span name)
    ("repro.cluster.cluster", "Cluster.workload_std", "cluster.census"),
    ("repro.costs.model", "CostModel.__init__", "costs.model_build"),
    ("repro.costs.model", "CostModel.migration_cost_vector", "costs.vector"),
    ("repro.costs.model", "CostModel.cost_rows", "costs.vector"),
    ("repro.costs.model", "CostModel.sync_cache", "costs.sync"),
    # warm_fit is imported by name into selection and looked up in base
    # at call time by PredictiveManager: patch both namespaces
    ("repro.forecast.base", "warm_fit", "forecast.refit"),
    ("repro.forecast.selection", "warm_fit", "forecast.refit"),
    ("repro.forecast.selection", "DynamicModelSelector.fit", "forecast.fit"),
    ("repro.forecast.selection", "DynamicModelSelector.observe", "forecast.observe"),
    ("repro.forecast.batch", "batch_forecast", "forecast.predict"),
    ("repro.forecast.selection", "batch_predict_one", "forecast.predict"),
    ("repro.sim.scenario", "forecast_alert_round", "alerts.gate"),
    ("repro.sim.reactive", "PredictiveManager.alerts_at", "sim.manager_alerts"),
    ("repro.sim.reactive", "PredictiveManager.observe", "sim.manager_observe"),
    ("repro.sim.reactive", "DemandDrivenWorkload.host_load", "sim.host_load"),
    ("repro.sim.inflight", "InFlightTracker.complete_due", "sim.landings"),
    ("repro.sim.engine", "SheriffSimulation.run_round", "service.round"),
    ("repro.migration.manager", "ShimManager.process_round", "migration.shim_round"),
    ("repro.faults.injector", "FaultInjector.begin_round", "faults.begin_round"),
    ("repro.slo.accounting", "SloAccountant.charge_round", "slo.charge"),
    ("repro.slo.accounting", "SloAccountant.charge_downtime", "slo.charge"),
    ("repro.slo.accounting", "SloAccountant.charge_stretch", "slo.charge"),
    ("repro.obs.tracer", "RecordingTracer.emit", "obs.emit"),
)

SECTION_SPANS: Dict[str, str] = {
    # existing Profiler sections that become spans in the span pass; the
    # other sections ("round", "faults", "plan*") are either covered by a
    # wrapper above or off the default path
    "priority": "migration.priority",
    "matching": "migration.matching",
    "request": "migration.request",
    "commit": "migration.commit",
    "reroute": "migration.reroute",
}


class SpanRecorder:
    """The one in-memory span list of a benchmark pass.

    A disabled recorder (the plain pass) hands out no-op contexts, so the
    harness's own set-up code reads the same in both passes.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.round = SETUP_ROUND
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.round]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager around one of the harness's own calls."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        """*fn* timed as one span named *name* per call."""
        # open/close inlined: a span pass makes ~10^5 of these calls
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(
                [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.round]
            )
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][END] = perf_counter()
                stack.pop()

        return wrapper


def _resolve(module: str, path: str):
    """``(owner, attribute name, current value)`` of a wrapper target.

    A missing module or attribute raises: a rename under ``src/`` must
    stop the run, never silently zero a layer metric.
    """
    owner = import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(
            f"span wrapper target {module}.{path} is gone: "
            f"{owner!r} does not define {attr!r}"
        )
    return owner, attr, vars(owner)[attr]


@contextmanager
def installed(
    recorder: SpanRecorder,
    wrappers: Sequence[Tuple[str, str, str]] = WRAPPERS,
) -> Iterator[None]:
    """Install *wrappers* for the duration of the block (span pass only)."""
    if not recorder.enabled:
        yield
        return
    # resolve everything first, so a missing target leaves nothing patched
    targets = [(*_resolve(module, path), name) for module, path, name in wrappers]
    try:
        for owner, attr, original, name in targets:
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original, _ in targets:
            setattr(owner, attr, original)


def span_profiler(recorder: SpanRecorder):
    """A ``Profiler`` whose plan-side sections also land as spans.

    Handed to the engine through the public ``SheriffConfig(profiler=)``
    knob in the span pass; the plain pass keeps the default profiler.
    """
    from repro.obs.profiling import Profiler

    class _SpanSection:
        __slots__ = ("_name", "_inner", "_index")

        def __init__(self, name: str, inner) -> None:
            self._name = name
            self._inner = inner

        def __enter__(self):
            self._index = recorder.open(self._name)
            self._inner.__enter__()
            return self

        def __exit__(self, *exc) -> None:
            self._inner.__exit__(*exc)
            recorder.close(self._index)

    class SpanProfiler(Profiler):
        def section(self, name: str):
            inner = super().section(name)
            span_name = SECTION_SPANS.get(name)
            return inner if span_name is None else _SpanSection(span_name, inner)

    return SpanProfiler()


def self_times(spans: Iterable[list]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    spans = list(spans)
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
