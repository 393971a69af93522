"""``python -m bench`` — run the workloads, print every metric, check outputs.

Two ways in, one code path (``bench.worker`` children either way):

* ``python -m bench [--workloads a,b] [--seed N] [--no-spans]`` — one
  *invocation*: every selected workload's plain pass (end-to-end
  metrics) and span pass (per-layer metrics), the correctness checks,
  the table on stdout and ``bench/out/result.json``.  Exit 1 when a
  check fails.
* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` — the
  ``BENCHMARK.json`` contract: one workload, one pass (``--trace 1`` is
  the span pass), and one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import NOMINAL_SECONDS, OUT_DIR, ROOT, SRC, WORKLOAD_NAMES, metrics

WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """A worker could not produce a record (crash, timeout, no program)."""


def _worker(workload: str, mode: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one ``bench.worker`` child to completion; its JSON record."""
    env = dict(os.environ)
    # one thread: the shim is a single control loop, and nproc is 2
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
        "--mode", mode, "--out-dir", str(args.out_dir),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}/{mode}: worker timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(f"{workload}/{mode}: worker exited {done.returncode}")
    return json.loads(lines[-1])


def _with_units(values: Dict[str, float], units: Dict[str, str]):
    return {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }


_E2E_UNITS = {m.name: m.unit for m in metrics.REPORTED}
_LAYER_UNITS = {m.name: m.unit for m in (*metrics.PER_LAYER, metrics.SPAN_OVERHEAD)}


def _reported(workload: str, plain: Dict[str, Any], wall_clock: bool):
    """The end-to-end metrics reported on *workload*, with their units."""
    values = metrics.end_to_end_values(plain, wall_clock=wall_clock)
    return _with_units(
        {
            m.name: values[m.name]
            for m in metrics.REPORTED
            if m.applies(workload) and m.name in values
        },
        _E2E_UNITS,
    )


# ---------------------------------------------------------------------- #
def run_invocation(args: argparse.Namespace) -> Dict[str, Any]:
    """Every selected workload, plain then span pass; the result document."""
    workloads: Dict[str, Any] = {}
    for name in args.workloads:
        plain = _worker(name, "plain", args)
        problems: List[str] = list(plain["problems"])
        entry: Dict[str, Any] = {
            "rounds": plain["rounds"],
            "samples": len(plain["round_s"]),
            "decision_digest": plain["decision_digest"],
            "cpu_util": plain["cpu_util"],
            "slowdown": plain["slowdown"],
            "noisy": plain["noisy"],
            "error": plain["error"],
            "end_to_end": _reported(name, plain, wall_clock=False),
            "wall_clock": _reported(name, plain, wall_clock=True),
            "round_ms": [1e3 * s for s in plain["round_s"]],
        }
        if args.spans:
            traced = _worker(name, "spans", args)
            problems += [f"span pass: {p}" for p in traced["problems"]]
            if traced["decision_digest"] != plain["decision_digest"]:
                problems.append("plain and span pass made different decisions")
            layers = dict(traced["per_layer"])
            layers[metrics.SPAN_OVERHEAD.name] = (
                (sum(traced["round_s"]) / traced["slowdown"])
                / (sum(plain["round_s"]) / plain["slowdown"]) - 1.0
            )
            entry["per_layer"] = _with_units(layers, _LAYER_UNITS)
            entry["span_digest"] = traced["decision_digest"]
            entry["spans_file"] = traced["spans_file"]
        entry["problems"] = problems
        entry["correct"] = not problems
        workloads[name] = entry
        _print_workload(name, entry)
    return {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": workloads,
        "correct": all(w["correct"] for w in workloads.values()),
    }


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    flag = " NOISY (cpu_util %.2f)" % entry["cpu_util"] if entry["noisy"] else ""
    print(f"== {name}  rounds={entry['rounds']}  n={entry['samples']} "
          f"slowdown={entry['slowdown']:.3f} "
          f"digest={str(entry['decision_digest'])[:12]}{flag}")
    for block in ("end_to_end", "per_layer"):
        if block not in entry:
            continue
        print(f"  {block}")
        for metric, cell in entry[block].items():
            line = f"    {metric:<28} {cell['value']:>16.6g} {cell['unit']}"
            wall = entry["wall_clock"].get(metric) if block == "end_to_end" else None
            if wall and wall["value"] != cell["value"]:
                line += f"   (wall clock {wall['value']:.6g})"
            print(line)
    for problem in entry["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if entry["error"]:
        print(entry["error"])
    sys.stdout.flush()


# ---------------------------------------------------------------------- #
def run_contract(args: argparse.Namespace) -> Dict[str, Any]:
    """One workload, one pass, in the shape ``BENCHMARK.json`` asks for."""
    (name,) = args.workloads
    if args.trace:
        record = _worker(name, "spans", args)
        specs, units, values = metrics.PER_LAYER, _LAYER_UNITS, record["per_layer"]
    else:
        record = _worker(name, "plain", args)
        specs, units = metrics.END_TO_END, _E2E_UNITS
        values = metrics.end_to_end_values(record)
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if record["error"]:
        print(record["error"], file=sys.stderr)
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        # a run that failed in round 0 has no round times, one without a
        # migration no cost per migration (both are failed checks): report
        # what there is
        "metrics": _with_units(
            {m.name: values[m.name] for m in specs if m.name in values}, units
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workloads", "--workload", default=",".join(WORKLOAD_NAMES),
                        help="comma-separated subset (names never change)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="feeds every generator (default 2015)")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="run length; %d = the nominal round counts" % NOMINAL_SECONDS)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke = same code path at toy size (tests)")
    parser.add_argument("--no-spans", dest="spans", action="store_false",
                        help="skip the span pass (no per-layer metrics)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="BENCHMARK.json contract mode: one workload, one "
                             "pass (1 = span pass), JSON on the last line")
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR)
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}")
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if len(args.workloads) != 1:
                parser.error("--trace takes exactly one --workload")
            print(json.dumps(run_contract(args)))
            return 0
        result = run_invocation(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "result.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}; correct={result['correct']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
