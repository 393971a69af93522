#!/usr/bin/env python
"""The pairing rule as a command (`make bench-pairs`).

Checks the parent commit out into a temporary ``git worktree`` and runs
every ``BENCHMARK.json`` workload on the parent and on the working tree,
one seed after another, the side that goes first flipped every seed — the
harness's own child process in each tree (``bench.__main__._worker``, what
the ``BENCHMARK.json`` command runs for ``--trace 0``), read and never
edited, so the decision digest comes back with the metrics.

Prints, per workload and end-to-end metric — ``BENCHMARK.json``'s, then
the ``bench.metrics.CHECKS`` rows that apply there (``round_ms_slow10``,
``failed_round_share``, ``overload_host_rounds``,
``slo_violation_minutes``) under ``bench.metrics.bound`` — both sides'
medians and quartiles, the pairs the change won (ties count for
neither), the ratio with its base, and a verdict —

* ``worse``       the change's median is past the metric's ``bound``;
* ``unresolved``  the parent's own spread (quartile distance over median)
                  exceeds that bound, and the sides' runs overlap;
* ``better``      the change won >= 9 in 10 pairs and the medians are
                  further apart than the parent's quartiles;
* ``same``        otherwise;

and whether the decision digests matched at every seed; any rise in
``failed_round_share`` reads ``worse``, as in ``bench/compare.py``.  A
row that reads ``worse`` or ``unresolved`` is followed by its per-run
values, so a set-up row that flips on noise is seen before a gate sees
it.  A run that crashes
or times out is recorded as that side's failure and the pairs go on; the
metrics are judged on the pairs both sides measured.  Exits 1 when a row
is ``worse``, a digest differs, a run failed, or a run failed one of its
own checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from bench import metrics  # noqa: E402  (pure Python: no numpy, no repro)
SEEDS = (101, 102, 103, 104, 105, 106, 107, 108, 109)
HELD_OUT = 7
"""Never used while a change is written: the claim must hold on it too."""

_DRIVER = """
import argparse, json, sys
from bench import __main__ as harness, metrics
workload, seed, seconds, out_dir = sys.argv[1:]
run = argparse.Namespace(
    seed=int(seed), seconds=float(seconds), scale="full", out_dir=out_dir
)
record = harness._worker(workload, "plain", run)
print(json.dumps({
    "values": metrics.end_to_end_values(record),
    "digest": record["decision_digest"],
    "problems": record["problems"] + ([record["error"]] if record["error"] else []),
}))
"""


MEASURE_TIMEOUT_S = 600
"""A backstop per run; the harness's own worker stops at 170 s."""


def _measure(tree: Path, workload: str, seed: int, seconds: float, out_dir: Path):
    """One run's ``{values, digest, problems}``; a failed run is a record too."""
    cmd = [sys.executable, "-c", _DRIVER, workload, str(seed), str(seconds), str(out_dir)]
    try:
        done = subprocess.run(
            cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return _failed(f"timed out after {MEASURE_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return _failed(f"exited {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        return _failed(f"printed no record: {lines[-1][:200]!r}")


def _failed(problem: str):
    return {"values": {}, "digest": None, "problems": [f"run failed: {problem}"]}


def run_pairs(trees, workloads, seeds, seconds: float, out_dir: Path):
    """``workload -> [(seed, parent, change)]``; *trees* maps each side to a tree.

    The side that goes first flips every seed; a failed run does not stop
    the others.
    """
    runs = {w: [] for w in workloads}
    sides = [("parent", trees["parent"]), ("change", trees["change"])]
    for workload in workloads:
        for i, seed in enumerate(seeds):
            got = {
                side: _measure(tree, workload, seed, seconds, out_dir)
                for side, tree in (sides if i % 2 == 0 else sides[::-1])
            }
            runs[workload].append((seed, got["parent"], got["change"]))
            rates = []
            for side, _ in sides:
                rate = got[side]["values"].get("rounds_per_s")
                rates.append(f"{side} " + ("FAILED" if rate is None else f"{rate:.1f}"))
            print(f"{workload} seed {seed}: {'  '.join(rates)} rounds/s", file=sys.stderr)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent, change, better: str, bound: float):
    """``(verdict, pairs won, pairs decided, ratio)`` for one metric's runs."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    decided = sum(c != p for p, c in zip(parent, change))
    p1, p2, p3 = _quartiles(parent)
    c2 = _quartiles(change)[1]
    ratio = c2 / p2 if p2 else float("nan")
    gain = sign * (c2 - p2)
    disjoint = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if p2 and -gain > bound * abs(p2):
        verdict = "worse"
    elif p2 and (p3 - p1) > bound * abs(p2) and not disjoint and decided:
        verdict = "unresolved"
    elif decided and won >= 0.9 * len(parent) and gain > (p3 - p1):
        verdict = "better"
    else:
        verdict = "same"
    return verdict, won, decided, ratio


def report(spec, runs, out=sys.stdout) -> bool:
    """Print the table for *runs* (``workload -> [(seed, parent, change)]``)."""
    ok = True
    for workload, rows in runs.items():
        same = all(
            p["digest"] == c["digest"]
            for _, p, c in rows
            if p["digest"] is not None and c["digest"] is not None
        )
        problems = [
            f"{side} seed {seed}: {x}"
            for seed, p, c in rows
            for side, record in (("parent", p), ("change", c))
            for x in record["problems"]
        ]
        ok &= same and not problems
        print(f"== {workload}  pairs={len(rows)}  seeds={[s for s, _, _ in rows]}  "
              f"digests {'identical' if same else 'DIFFER'}", file=out)
        for problem in problems:
            print(f"   FAILED CHECK: {problem}", file=out)
        for metric in spec["end_to_end"]:
            ok &= _row(rows, metric["name"], metric["unit"], metric["better"],
                       lambda _, bound=metric["bound"]: bound, out)
        for check in metrics.CHECKS:
            if check.applies(workload):
                ok &= _row(rows, check.name, check.unit, check.better,
                           lambda base, check=check: metrics.bound(check, workload, base),
                           out)
    return ok


def _row(rows, name, unit, better, bound_at, out) -> bool:
    """Print one metric's row; False when it reads ``worse``.  *bound_at*
    maps the parent's median to the bound."""
    pairs = [
        (p["values"][name], c["values"][name])
        for _, p, c in rows
        if name in p["values"] and name in c["values"]
    ]
    if not pairs:
        print(f"   {name:<20} no pair measured it", file=out)
        return True
    parent, change = (list(side) for side in zip(*pairs))
    bound = bound_at(_quartiles(parent)[1])
    verdict, won, decided, ratio = judge(parent, change, better, bound)
    if name == "failed_round_share" and max(change) > max(parent):
        verdict = "worse"  # any rise, as bench/compare.py reads it
    (p1, p2, p3), (c1, c2, c3) = _quartiles(parent), _quartiles(change)
    print(f"   {name:<20} parent {p2:>10.5g} [{p1:.5g}, {p3:.5g}]  "
          f"change {c2:>10.5g} [{c1:.5g}, {c3:.5g}]  "
          f"won {won}/{decided}  x{ratio:.3f} of {p2:.5g} {unit}  "
          f"(bound {bound:.0%}, {better} is better)  "
          f"{verdict}", file=out)
    if verdict in ("worse", "unresolved"):
        print(f"      parent runs {[round(v, 5) for v in parent]}", file=out)
        print(f"      change runs {[round(v, 5) for v in change]}", file=out)
    return verdict != "worse"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, type=Path,
                        help="scratch directory: the parent worktree and the "
                             "workers' files go here")
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare the working tree with (default HEAD)")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--pairs", type=int, default=len(SEEDS) + 1,
                        help="pairs per workload; the held-out seed is always one")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if set(workloads) - set(names) or args.pairs < 1:
        parser.error(f"workloads are {names}; --pairs is at least 1")
    seeds = [*range(SEEDS[0], SEEDS[0] + args.pairs - 1), HELD_OUT]
    parent_tree = args.out_dir / "parent"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(parent_tree), args.parent],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    try:
        runs = run_pairs(
            {"parent": parent_tree, "change": ROOT}, workloads, seeds,
            spec["run_seconds"], args.out_dir,
        )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT, check=False,
        )
    return 0 if report(spec, runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
