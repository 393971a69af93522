"""One workload, one pass, one fresh process.

``python -m bench.worker --workload W --seed N --seconds S --scale full
--mode plain|spans --out-dir DIR`` sets the workload up, runs its
timed rounds closed-loop (round *t+1* is issued when round *t* returns;
input generation for a round happens outside its timed interval), checks
the outputs, and prints one JSON record as the last line of stdout.  The
parent (``python -m bench``) pins the BLAS thread counts and PYTHONPATH
through the environment, which is why this is a process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import fields
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict

from bench import calibrate, metrics
from bench.spans import START, SpanRecorder, installed
from bench.workloads import (
    OVERLOAD_THRESHOLD,
    WORKLOADS,
    base_config,
    scaled_rounds,
)

_DIGEST_SKIP = {"timings", "reports", "pool"}
_SECTIONS = ("priority", "matching", "request", "commit")


def _summary_key(summary) -> Dict[str, Any]:
    """A ``RoundSummary`` minus what legitimately varies run to run."""
    return {
        f.name: getattr(summary, f.name)
        for f in fields(summary)
        if f.name not in _DIGEST_SKIP
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.scale]
    rounds = scaled_rounds(workload, args.scale, args.seconds)
    rec = SpanRecorder(enabled=args.mode == "spans")
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "mode": args.mode,
        "rounds": rounds,
    }
    with installed(rec):
        t0 = perf_counter()
        ready = workload.build(size, rounds, args.seed, base_config(rec), rec)
        record["setup_s"] = perf_counter() - t0
        _timed_rounds(ready, rounds, rec, record)
    sim, cluster = ready.sim, ready.cluster
    sim.close()
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    record["workload_std_final"] = float(cluster.workload_std())
    record["slo_violation_minutes"] = (
        float(sim.slo.summary()["total_minutes"]) if sim.slo is not None else None
    )
    problems = []
    if record["failed"]:
        problems.append(f"{record['failed']} of {rounds} rounds failed")
    if not record["migrations"]:
        problems.append("no migration was made: cost_per_migration is undefined")
    try:
        cluster.placement.check_invariants()
    except Exception as exc:  # boundary: report, never hide, a broken placement
        problems.append(f"placement invariants: {exc!r}")
    if rec.enabled:
        counts = record.pop("counts")
        counts["obs.events"] = len(ready.tracer.events) if ready.tracer else 0
        counts["sim.landed"] = sim.metrics.total("sheriff_migrations_landed_total")
        counts["service.bus_events"] = sum(sim.bus.counts.values())
        counts["sim.overload_host_rounds"] = record["overload_host_rounds"]
        counts["slo.violation_minutes"] = record["slo_violation_minutes"] or 0.0
        layers = metrics.per_layer(
            rec.spans, record["round_s"], record["cpu_util"], record["slowdown"],
            counts,
        )
        record["per_layer"] = layers
        problems += metrics.check_layers(
            workload.fired, workload.idle, metrics.span_totals(rec.spans), layers
        )
        record["spans_file"] = _write_spans(rec, args)
    else:
        record.pop("counts")
    record["problems"] = problems
    return record


def _timed_rounds(ready, rounds: int, rec: SpanRecorder, record) -> None:
    """The closed loop: prepare (untimed) → step (timed) → tally (untimed)."""
    sim = ready.sim
    digest = hashlib.sha256()
    round_s, cpu_s = [], 0.0
    counts = {
        name: 0.0
        for name in (
            "alerts.raised", "alerts.vm_alerts", "migration.requests",
            "migration.acks", "migration.rejects", "migration.unplaced",
            "migration.search_space", "faults.injected", "faults.retries",
            "faults.rollbacks", "faults.degraded_rounds", "parallel.pool_rounds",
            "cache_hits", "cache_misses",
        )
    }
    total_cost = 0.0
    overloaded = 0
    sections0 = dict(sim.timing_breakdown())
    matchings0 = sim.profiler.counts.get("matching", 0)
    cost_model = None
    failed, error = 0, None
    slices = []
    for r in range(rounds):
        inputs = ready.prepare(r)
        slices += calibrate.read()
        rec.round = r
        with rec.span("bench.round"):
            wall0, cpu0 = perf_counter(), process_time()
            try:
                step = ready.step(r, inputs)
            except Exception:  # boundary: a raise ends the workload
                error = traceback.format_exc()
                failed = rounds - r
                break
            cpu1, wall1 = process_time(), perf_counter()
        round_s.append(wall1 - wall0)
        cpu_s += cpu1 - cpu0
        summary = step.summary
        digest.update(
            json.dumps(
                _summary_key(summary), sort_keys=True, default=lambda o: o.item()
            ).encode()
        )
        counts["alerts.raised"] += step.alerts
        counts["alerts.vm_alerts"] += step.vm_alerts
        counts["migration.requests"] += summary.requests
        counts["migration.acks"] += summary.migrations
        counts["migration.rejects"] += summary.rejects
        counts["migration.unplaced"] += summary.unplaced
        counts["migration.search_space"] += summary.search_space
        counts["faults.injected"] += summary.faults
        counts["faults.retries"] += summary.retries
        counts["faults.rollbacks"] += summary.rollbacks
        counts["faults.degraded_rounds"] += bool(summary.degraded)
        counts["parallel.pool_rounds"] += bool(summary.pool)
        total_cost += summary.total_cost
        if step.host_load is not None:
            overloaded += int((step.host_load > OVERLOAD_THRESHOLD).sum())
        if sim.cost_model is not cost_model:
            # a switch event swapped the model in: bank the old one's tally
            if cost_model is not None:
                counts["cache_hits"] += cost_model.cache_stats["hits"]
                counts["cache_misses"] += cost_model.cache_stats["misses"]
            cost_model = sim.cost_model
    rec.round = -1
    if cost_model is not None:
        counts["cache_hits"] += cost_model.cache_stats["hits"]
        counts["cache_misses"] += cost_model.cache_stats["misses"]
    sections = sim.timing_breakdown()
    for name in _SECTIONS:
        counts[f"migration.{name}_s"] = sections.get(name, 0.0) - sections0.get(
            name, 0.0
        )
    counts["migration.matchings"] = (
        sim.profiler.counts.get("matching", 0) - matchings0
    )
    digest.update(ready.cluster.placement.vm_host.tobytes())
    wall = sum(round_s)
    cpu_util = cpu_s / wall if wall else 0.0
    record.update(
        attempted=rounds,
        failed=failed,
        error=error,
        round_s=round_s,
        slowdown=statistics.median(slices) / calibrate.REFERENCE_S,
        cpu_util=cpu_util,
        # process_time well under wall: something else had the core
        noisy=cpu_util < metrics.NOISY_CPU_UTIL,
        migrations=int(counts["migration.acks"]),
        total_cost=total_cost,
        overload_host_rounds=overloaded,
        decision_digest=digest.hexdigest(),
        counts=counts,
    )


def _write_spans(rec: SpanRecorder, args: argparse.Namespace) -> str:
    """Spans to ``spans_<workload>.json``, times as µs since the first."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans_{args.workload}.json"
    origin = rec.spans[0][START] if rec.spans else 0.0
    rows = [
        [name, round(1e6 * (start - origin)), round(1e6 * (end - origin)), parent, rnd]
        for name, start, end, parent, rnd in rec.spans
    ]
    with path.open("w") as fh:
        json.dump(
            {"columns": ["name", "start_us", "end_us", "parent", "round"],
             "spans": rows},
            fh,
        )
    return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), required=True)
    parser.add_argument("--mode", choices=("plain", "spans"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    record = run(args)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
