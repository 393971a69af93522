#!/usr/bin/env python
"""Garbage-collector pauses inside one benchmark workload's timed rounds.

Usage::

    python tools/gc_pauses.py --workload ladder_k32 --seed 2015 [--scale full]
        [--seconds 15] [--out-dir DIR] [--json]

Runs ``bench.worker.run`` in this process (plain pass, one BLAS thread,
the checkout's own ``src/`` and ``bench/``) with a ``gc.callbacks`` hook,
and prints, for the timed rounds only, the collections and the seconds
spent in them per generation, plus the GC-tracked object count after the
workload's set-up and after its last round.  ``bench/`` is read, never
edited: the tool wraps ``bench.worker._timed_rounds`` for the duration of
the run to know where the timed section starts and ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


class GcClock:
    """Collections and pause seconds per generation while ``timed`` is set."""

    def __init__(self) -> None:
        self.timed = False
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if not self.timed:
            return
        if phase == "start":
            self._start = perf_counter()
        else:
            gen = info["generation"]
            self.collections[gen] += 1
            self.seconds[gen] += perf_counter() - self._start


def measure(
    workload: str,
    seed: int,
    *,
    scale: str = "full",
    seconds: float = 15.0,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One plain ``bench.worker`` pass of *workload* with GC pauses timed."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench import worker

    clock = GcClock()
    tracked: Dict[str, int] = {}
    timed_rounds = worker._timed_rounds

    def wrapped(ready, rounds, rec, record):
        tracked["after_setup"] = len(gc.get_objects())
        clock.timed = True
        try:
            timed_rounds(ready, rounds, rec, record)
        finally:
            clock.timed = False
        tracked["after_run"] = len(gc.get_objects())

    with tempfile.TemporaryDirectory() as scratch:
        args = argparse.Namespace(
            workload=workload,
            seed=seed,
            seconds=seconds,
            scale=scale,
            mode="plain",
            out_dir=out_dir or scratch,
        )
        gc.callbacks.append(clock)
        worker._timed_rounds = wrapped
        try:
            record = worker.run(args)
        finally:
            worker._timed_rounds = timed_rounds
            gc.callbacks.remove(clock)
    round_s: List[float] = record["round_s"]
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "rounds": len(round_s),
        "timed_s": sum(round_s),
        "gc_collections": clock.collections,
        "gc_seconds": clock.seconds,
        "tracked_after_setup": tracked.get("after_setup"),
        "tracked_after_run": tracked.get("after_run"),
        "decision_digest": record["decision_digest"],
    }


def format_table(result: Dict[str, Any]) -> str:
    lines = [
        f"{result['workload']} seed {result['seed']} ({result['scale']}): "
        f"{result['rounds']} timed rounds in {result['timed_s']:.3f} s",
        "generation  collections  seconds",
    ]
    for gen in range(3):
        lines.append(
            f"gen {gen:<7d} {result['gc_collections'][gen]:>11d}  "
            f"{result['gc_seconds'][gen]:.4f}"
        )
    lines.append(
        f"total       {sum(result['gc_collections']):>11d}  "
        f"{sum(result['gc_seconds']):.4f}"
    )
    lines.append(
        f"GC-tracked objects: {result['tracked_after_setup']} after set-up, "
        f"{result['tracked_after_run']} after the run"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out-dir", default=None,
                        help="directory handed to the worker (default: a temporary one)")
    parser.add_argument("--json", action="store_true", help="print one JSON line")
    args = parser.parse_args(argv)
    result = measure(
        args.workload,
        args.seed,
        scale=args.scale,
        seconds=args.seconds,
        out_dir=args.out_dir,
    )
    print(json.dumps(result) if args.json else format_table(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
