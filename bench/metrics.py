"""Metric names, units, bounds — and how each is computed.

Pure Python on plain data (lists, dicts), so the orchestrating parent,
``bench/compare.py`` and the tests use it without importing numpy or
``repro``.  ``END_TO_END`` is what a user of the shim sees; ``PER_LAYER``
is the budget that splits it, each entry saying which end-to-end metric
it should move and where.  Names are ``<module>.<metric>``; ``_s`` is
seconds busy, ``_calls`` and plain names are counts.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from bench import WORKLOAD_NAMES
from bench.spans import END, NAME, ROUND, SETUP_ROUND, START, self_times

ALL = None
_BIMODAL = ("managed_surge_k8", "degraded_traced_k8")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    default_bound: float
    """Share of the base median the metric may worsen by before a change
    counts as a regression, where the box is quiet enough to honour it
    (:func:`bound` widens it where it is not)."""
    timed: bool = True
    """A wall-clock/RSS measurement (noisy) vs a seeded decision metric,
    which repeats exactly and whose bound is a tolerance for
    decision-changing PRs, not a noise allowance."""
    workloads: Optional[Tuple[str, ...]] = ALL
    """Where it is reported; only ``CHECKS`` are partial."""
    default_on: Mapping[str, float] = field(default_factory=dict)
    """Workloads whose default bound differs."""
    slack: float = 0.0
    """A change smaller than this, in the metric's unit, never counts."""

    def applies(self, workload: str) -> bool:
        return self.workloads is ALL or workload in self.workloads


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.20, slack=0.5),
    EndToEnd("rounds_per_s", "rounds/s", "higher", 0.10),
    EndToEnd("round_ms_p50", "ms", "lower", 0.10),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    EndToEnd("cost_per_migration", "cost", "lower", 0.02, timed=False),
    EndToEnd("workload_std_final", "capacity", "lower", 0.02, timed=False),
)
"""Reported on every workload and never zero: what ``BENCHMARK.json`` can
gate."""

CHECKS: Tuple[EndToEnd, ...] = (
    # bimodal by design there (refit waves are exactly a tenth of the rounds,
    # fault rounds about a tenth); elsewhere the tail is collector pauses
    # whose round depends on the seed: a diagnostic (bench.round_ms_p95)
    EndToEnd("round_ms_slow10", "ms", "lower", 0.10, workloads=_BIMODAL,
             default_on={"degraded_traced_k8": 0.25}),
    EndToEnd("failed_round_share", "fraction", "lower", 0.0, timed=False),
    EndToEnd("overload_host_rounds", "host-rounds", "lower", 0.02, timed=False,
             workloads=("managed_surge_k8",)),
    EndToEnd("slo_violation_minutes", "min", "lower", 0.02, timed=False,
             workloads=("degraded_traced_k8",)),
)
"""End-to-end too, and judged by ``compare.py`` like the rest.  They cannot
be in ``BENCHMARK.json``, whose consumer wants every gated metric printed on
every workload ("the metrics are every ``end_to_end`` metric"), never zero,
under one bound per metric that its spread over ten seeds stays within:
these are zero (``failed_round_share`` always, the other two on four
workloads) or, for ``round_ms_slow10`` off the two bimodal workloads, a
tail of +-30 % against a bound capped at 25 %.  The driver still sees
``failed`` / ``attempted`` and, in the span pass,
``sim.overload_host_rounds`` and ``slo.violation_minutes``."""

REPORTED = END_TO_END + CHECKS
REPORTED_BY_NAME = {m.name: m for m in REPORTED}

BOUND_CAP = 0.25
NOISE_FILE = Path(__file__).resolve().parent / "baseline" / "noise.json"
_NOISE = json.loads(NOISE_FILE.read_text())["spreads"]
"""Per workload, each time metric's inter-quartile spread over median in
the same-seed invocations of the seed-commit baseline (``compare.py
--noise bench/baseline/run*.json``)."""


def bound(spec: EndToEnd, workload: str, base: Optional[float] = None) -> float:
    """The share of the base median *spec* may worsen by on *workload*.

    The default, unless the baseline's own spread there exceeds half of
    it: then twice that spread, at most ``BOUND_CAP`` -- a bound the box
    cannot honour is worse than a wider one.  ``slack`` (the 0.5 s of
    ``setup_s``) widens it further for a small *base*.
    """
    share = spec.default_on.get(workload, spec.default_bound)
    spread = _NOISE.get(workload, {}).get(spec.name, 0.0) if spec.timed else 0.0
    if spread > share / 2:
        share = min(BOUND_CAP, 2 * spread)
    if spec.slack and base:
        share = max(share, spec.slack / base)
    return share


_SEED_BOUND = {
    # what ten runs on ten *seeds* need: BENCHMARK.json's consumer accepts a
    # bound only if the metric's spread over them stays within it (and asks
    # for a third of it).  The decision metrics move 1.8 % and 9 %
    # (inter-quartile) from seed to seed although they repeat exactly on one
    "cost_per_migration": 0.06,
    "workload_std_final": 0.25,
    # managed_surge_k8's rounds range from 14 to 50 ms as the surges come in,
    # so its median sits on a slope: 10-11 % over ten seeds
    "round_ms_p50": BOUND_CAP,
    # its slack has no place in a share; the contract says the largest bound
    "setup_s": BOUND_CAP,
}


def contract_bound(spec: EndToEnd) -> float:
    """The one bound per metric ``BENCHMARK.json`` has room for: the widest
    over the workloads, and no less than its seeds need."""
    widest = max(bound(spec, w) for w in WORKLOAD_NAMES if spec.applies(w))
    return round(max(widest, _SEED_BOUND.get(spec.name, 0.0)), 3)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    """The end-to-end metric this should move, and on which workload."""


def _s(name: str, moves: str) -> Layer:
    return Layer(name, "s", "lower", moves)


def _n(name: str, moves: str, better: str = "lower") -> Layer:
    return Layer(name, "count", better, moves)


_PLAN = "round_ms_p50 @ plan_alerts_k8, ladder_k32"
_MANAGED = "rounds_per_s, round_ms_slow10 @ managed_surge_k8"
_DEGRADED = "round_ms_slow10 @ degraded_traced_k8; zero elsewhere"

PER_LAYER: Tuple[Layer, ...] = (
    _s("topology.build_s", "setup_s @ ladder_k32"),
    _s("cluster.build_s", "setup_s @ all"),
    _s("cluster.census_s", "round_ms_p50 @ plan_alerts_k8"),
    _n("cluster.census_calls", "round_ms_p50 @ plan_alerts_k8"),
    _s("costs.model_build_s", "setup_s, peak_rss_mb @ ladder_k32; "
       "round_ms_slow10 @ degraded_traced_k8"),
    _n("costs.model_builds", "> 1 only @ degraded_traced_k8"),
    _s("costs.vector_s", "round_ms_p50 @ ladder_k32 (largest share), plan_alerts_k8"),
    _n("costs.vector_calls", "round_ms_p50 @ ladder_k32, plan_alerts_k8"),
    _s("costs.sync_s", "round_ms_p50 @ ladder_k32, plan_alerts_k8"),
    Layer("costs.cache_hit_ratio", "ratio", "higher", "costs.vector_s @ all"),
    _s("forecast.refit_s", _MANAGED + "; round_ms_p50 @ selector_fleet_k8; "
       "no move @ plan_alerts_k8, ladder_k32"),
    _n("forecast.refit_calls", _MANAGED + "; 0 @ plan_alerts_k8"),
    _s("forecast.fit_s", "setup_s @ selector_fleet_k8"),
    _n("forecast.fit_calls", "setup_s @ selector_fleet_k8"),
    _s("forecast.predict_s", "round_ms_p50 @ selector_fleet_k8"),
    _n("forecast.predict_calls", "round_ms_p50 @ selector_fleet_k8"),
    _s("forecast.observe_s", "round_ms_p50 @ selector_fleet_k8"),
    _n("forecast.observe_calls", "round_ms_p50 @ selector_fleet_k8"),
    _s("alerts.gate_s", "round_ms_p50 @ selector_fleet_k8"),
    _n("alerts.raised", "sizes the load @ all"),
    _n("alerts.vm_alerts", "sizes the load @ all"),
    _s("sim.manager_alerts_s", "round_ms_p50 @ managed_surge_k8 (quiet rounds)"),
    _s("sim.manager_observe_s", "round_ms_p50 @ managed_surge_k8 (quiet rounds)"),
    _s("sim.host_load_s", "round_ms_p50 @ managed_surge_k8 (quiet rounds)"),
    _s("sim.landings_s", "round_ms_p50 @ degraded_traced_k8"),
    _n("sim.landed", "round_ms_p50 @ degraded_traced_k8"),
    _n("sim.overload_host_rounds", "the check overload_host_rounds @ "
       "managed_surge_k8; zero elsewhere"),
    _s("service.round_self_s", _PLAN),
    _n("service.bus_events", _PLAN),
    _s("migration.shim_round_s", "rounds_per_s @ plan_alerts_k8, ladder_k32; "
       "no move @ managed_surge_k8"),
    _n("migration.shim_rounds", "32/round @ plan_alerts_k8, ~266/round @ ladder_k32"),
    _s("migration.shim_self_s", "rounds_per_s @ plan_alerts_k8 (biggest block at k=8)"),
    _s("migration.priority_s", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _s("migration.matching_s", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _n("migration.matchings", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _s("migration.request_s", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _s("migration.commit_s", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _n("migration.requests", "cost_per_migration if decisions change"),
    _n("migration.acks", "cost_per_migration if decisions change", "higher"),
    _n("migration.rejects", "cost_per_migration if decisions change"),
    Layer("migration.ack_ratio", "ratio", "higher", "useful REQUESTs over attempts"),
    _n("migration.unplaced", "workload_std_final if decisions change"),
    _n("migration.search_space", "rounds_per_s @ plan_alerts_k8, ladder_k32"),
    _s("faults.begin_round_s", _DEGRADED),
    _n("faults.injected", _DEGRADED),
    _n("faults.retries", _DEGRADED),
    _n("faults.rollbacks", _DEGRADED),
    _n("faults.degraded_rounds", _DEGRADED),
    _s("slo.charge_s", "round_ms_p50 @ degraded_traced_k8"),
    _n("slo.charges", "round_ms_p50 @ degraded_traced_k8"),
    Layer("slo.violation_minutes", "min", "lower",
          "the check slo_violation_minutes @ degraded_traced_k8; zero elsewhere"),
    _s("obs.emit_s", "rounds_per_s, peak_rss_mb @ degraded_traced_k8"),
    _n("obs.events", "rounds_per_s, peak_rss_mb @ degraded_traced_k8"),
    _n("parallel.pool_rounds", "0 on all five: the pools are off the default path"),
    Layer("bench.cpu_util", "ratio", "higher", "process_time / wall; < 0.9 = noisy run"),
    Layer("bench.slowdown", "ratio", "lower",
          "calibration slice over its reference: what every time was divided by"),
    Layer("bench.round_ms_p95", "ms", "lower", "diagnostic tail, not gated"),
    Layer("bench.attributed_frac", "ratio", "higher",
          "share of timed wall inside some layer's span"),
    Layer("bench.forecast_share", "ratio", "lower",
          ">= 0.85 @ managed_surge_k8, 0 @ plan_alerts_k8"),
)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)

SPAN_OVERHEAD = Layer(
    "bench.span_overhead_frac", "ratio", "lower",
    "span-pass wall over plain-pass wall, minus 1 (needs both passes)",
)

NOISY_CPU_UTIL = 0.9


# ---------------------------------------------------------------------- #
def slow10_mean(values: Sequence[float]) -> float:
    """Mean of the slowest tenth (at least one) of *values*.

    Where a tenth of the rounds are slow by design this reads the slow mode
    itself; a p90 sits on the mode boundary and flips between identical runs.
    """
    worst = sorted(values, reverse=True)[: max(1, len(values) // 10)]
    return sum(worst) / len(worst)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end_values(
    raw: Mapping[str, Any], wall_clock: bool = False
) -> Dict[str, float]:
    """Every end-to-end metric a worker's raw record can support.

    Times are at reference speed -- measured seconds over the run's
    ``slowdown`` (:mod:`bench.calibrate`) -- unless *wall_clock* asks for
    them exactly as measured.
    """
    speed = 1.0 if wall_clock else raw["slowdown"]
    round_s = [s / speed for s in raw["round_s"]]
    values: Dict[str, Any] = {
        name: raw[name]
        for name in ("peak_rss_mb", "overload_host_rounds",
                     "workload_std_final", "slo_violation_minutes")
    }
    values["setup_s"] = raw["setup_s"] / speed
    values["failed_round_share"] = raw["failed"] / raw["attempted"]
    if round_s:
        ms = [1e3 * s for s in round_s]
        values["rounds_per_s"] = len(round_s) / sum(round_s)
        values["round_ms_p50"] = statistics.median(ms)
        values["round_ms_slow10"] = slow10_mean(ms)
    if raw["migrations"]:
        values["cost_per_migration"] = raw["total_cost"] / raw["migrations"]
    return {k: float(v) for k, v in values.items() if v is not None}


def span_totals(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: timed self seconds, timed calls, whole-run seconds/calls."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = out.setdefault(
            span[NAME],
            {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "run_s": 0.0, "run_calls": 0},
        )
        duration = span[END] - span[START]
        row["run_s"] += duration
        row["run_calls"] += 1
        if span[ROUND] != SETUP_ROUND:
            row["self_s"] += self_s
            row["incl_s"] += duration
            row["calls"] += 1
    return out


def per_layer(
    spans: Sequence[list],
    round_s: Sequence[float],
    cpu_util: float,
    slowdown: float,
    counts: Mapping[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the span list and the counters.

    *round_s* and the spans are as measured; the ``_s`` and ``_ms`` values
    returned are at reference speed like the end-to-end times.

    *counts* carries what the harness tallied at the layer boundaries
    (``RoundSummary`` sums, Profiler section deltas, bus/tracer/cache
    counters); see ``bench/worker.py``.
    """
    totals = span_totals(spans)

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    wall = sum(round_s)
    root_self = span("bench.round", "self_s")
    forecast_self = sum(
        row["self_s"] for name, row in totals.items() if name.startswith("forecast.")
    )
    queries = counts["cache_hits"] + counts["cache_misses"]
    values = {
        # builders run in set-up (and, for the cost model, on every switch
        # event): whole-run inclusive time, not the timed section only
        "topology.build_s": span("topology.build", "run_s"),
        "cluster.build_s": span("cluster.build", "run_s"),
        "costs.model_build_s": span("costs.model_build", "run_s"),
        "costs.model_builds": span("costs.model_build", "run_calls"),
        "forecast.fit_s": span("forecast.fit", "run_s"),
        "forecast.fit_calls": span("forecast.fit", "run_calls"),
        "costs.cache_hit_ratio": counts["cache_hits"] / queries if queries else 0.0,
        "service.round_self_s": span("service.round", "self_s"),
        "migration.shim_round_s": span("migration.shim_round", "incl_s"),
        "migration.shim_rounds": span("migration.shim_round", "calls"),
        "migration.shim_self_s": span("migration.shim_round", "self_s"),
        "migration.ack_ratio": (
            counts["migration.acks"] / counts["migration.requests"]
            if counts["migration.requests"]
            else 0.0
        ),
        "bench.cpu_util": cpu_util,
        "bench.round_ms_p95": 1e3 * percentile(round_s, 0.95) if round_s else 0.0,
        "bench.attributed_frac": 1.0 - root_self / wall if wall else 0.0,
        "bench.forecast_share": forecast_self / wall if wall else 0.0,
    }
    for name in (
        "cluster.census", "costs.vector", "forecast.refit", "forecast.predict",
        "forecast.observe", "slo.charge",
    ):
        values[f"{name}_s"] = span(name, "self_s")
        plural = "slo.charges" if name == "slo.charge" else f"{name}_calls"
        values[plural] = span(name, "calls")
    for name in (
        "costs.sync", "alerts.gate", "sim.manager_alerts", "sim.manager_observe",
        "sim.host_load", "sim.landings", "faults.begin_round", "obs.emit",
    ):
        values[f"{name}_s"] = span(name, "self_s")
    values["bench.slowdown"] = slowdown
    for name in PER_LAYER_NAMES:
        if name not in values:
            values[name] = counts[name]
        if name.endswith(("_s", "_ms_p95")):
            values[name] /= slowdown
    return {name: float(values[name]) for name in PER_LAYER_NAMES}


def check_layers(
    fired: Sequence[str],
    idle: Sequence[str],
    totals: Mapping[str, Mapping[str, float]],
    layers: Mapping[str, float],
) -> List[str]:
    """Violations of a workload's fired/idle contract (empty = fine).

    A wrapper the workload is said to exercise must have fired in the
    timed section; a layer said to be idle must not have run at all, set-up
    included.  The pools are off the default path on every workload, and
    the fault counters stay at zero wherever the fault layer is idle.
    """
    problems = [
        f"{name} never fired in the timed section"
        for name in fired
        if not totals.get(name, {}).get("calls")
    ]
    problems += [
        f"{name} ran {totals[name]['run_calls']:g} times but the workload "
        "says it is idle"
        for name in idle
        if totals.get(name, {}).get("run_calls")
    ]
    if layers.get("parallel.pool_rounds"):
        problems.append("parallel.pool_rounds != 0: a planner pool ran")
    if "faults.begin_round" in idle:
        problems += [
            f"{name} = {layers[name]:g} with the fault layer idle"
            for name in ("faults.injected", "faults.retries", "faults.rollbacks",
                         "faults.degraded_rounds")
            if layers.get(name)
        ]
    return problems
