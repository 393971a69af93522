"""Sheriff's benchmark: one harness, five workloads, one schema.

``python -m bench`` (from the repo root) drives the five named workloads
of :mod:`bench.workloads` through the public API, each in a fresh
single-threaded subprocess, closed loop with one client, and reports the
end-to-end metrics of :data:`bench.metrics.END_TO_END` plus — from a
second *span pass* with timing wrappers installed around the layers'
public callables — the per-layer metrics of
:data:`bench.metrics.PER_LAYER`.  See ``bench/README.md``.

Importing this package imports neither numpy nor ``repro``: the parent
process only orchestrates children, which pin their BLAS threads through
the environment before numpy loads.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
"""The checkout the benchmark runs in (``bench/``'s parent)."""

SRC = ROOT / "src"
"""Where the program under test lives; children get it as PYTHONPATH."""

OUT_DIR = ROOT / "bench" / "out"
"""Default location of ``result.json`` and ``spans_<workload>.json``."""

WHY = {
    "managed_surge_k8": (
        "the paper's closed loop at 1280 hosts: forecast refits are "
        "~97 % of the work, migration almost none; a streaming "
        "forecaster must show here"
    ),
    "plan_alerts_k8": (
        "forecast does nothing; ShimManager planning (32 large regions) "
        "and the service bus do it all: where planner work shows, the "
        "control for forecaster work"
    ),
    "selector_fleet_k8": (
        "the forecast layer used the other way: ~770 per-VM selectors, "
        "batched predict + Eq. (14) scoring beside 1/40th of the fleet "
        "refitting; 3k fits in set-up"
    ),
    "ladder_k32": (
        "same migration layer as ~266 small regions a round on a k=32 "
        "fabric: per-rack fixed cost, cost vectors and cache sync "
        "dominate; table build is the set-up and the memory"
    ),
    "degraded_traced_k8": (
        "everything opt-in switched on: faults, lossy channel, SLO "
        "ledger, in-flight timing, tracing; the cost model is rebuilt "
        "mid-run on every switch event"
    ),
}
"""The five workloads, in the order an invocation runs them, each with the
one line that says why it exists (``BENCHMARK.json`` repeats it;
:mod:`bench.workloads` builds them)."""

WORKLOAD_NAMES = tuple(WHY)

NOMINAL_SECONDS = 15
"""``--seconds`` value at which the workloads run their nominal lengths:
the default of ``python -m bench`` and ``run_seconds`` in
``BENCHMARK.json``.  Other values scale the round counts in proportion:
lengths, not deadlines, end a run, so that the same ``(seed, seconds)``
always makes the same decisions."""
