"""Compare two sets of benchmark invocations.

``python bench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json``

Each file is one invocation's ``result.json``.  A is the base (the parent
commit, or the first half of a same-code pair of sets), B the change.
Prints one row per workload × end-to-end metric — set medians, quartiles,
the ratio with its base, the bound — and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     better by more than the bound, or every run of B beats
                 every run of A;
* ``same``       within the bound;
* ``unresolved`` a set's own spread (inter-quartile distance over its
                 median) exceeds the bound and the sets overlap, so the
                 question cannot be answered from these runs.

A run flagged ``noisy`` (timed-section process_time / wall < 0.9) is left
out of its set and listed.  Bounds are ``bench.metrics.bound``: per
workload, the metric's default unless the baseline's own spread
(``bench/baseline/noise.json``) says the box cannot honour it.  Exit 1 on
any ``worse`` or any rise in ``failed_round_share``.

``python bench/compare.py --noise R1.json … R5.json`` prints the relative
inter-quartile spread of every time metric per workload instead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import WORKLOAD_NAMES, metrics


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load_set(paths: Sequence[str]) -> List[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def metric_values(
    runs: Sequence[dict], workload: str, metric: str, dropped: Optional[List[str]] = None
) -> List[float]:
    """*metric* on *workload* across a set, noisy runs left out."""
    out = []
    for i, run in enumerate(runs):
        entry = run["workloads"].get(workload)
        if entry is None or metric not in entry["end_to_end"]:
            continue
        if entry["noisy"] and metrics.REPORTED_BY_NAME[metric].timed:
            if dropped is not None:
                dropped.append(f"{workload} run {i + 1} (cpu_util {entry['cpu_util']:.2f})")
            continue
        out.append(entry["end_to_end"][metric]["value"])
    return out


def verdict(
    better: str, bound: float, a: Sequence[float], b: Sequence[float]
) -> Tuple[str, float]:
    """``(verdict, B's improvement as a share of A's median)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if better == "higher":
        b_wins, a_wins = min(b) > max(a), min(a) > max(b)
    else:
        b_wins, a_wins = max(b) < min(a), max(a) < min(b)
    if max(spread(a), spread(b)) > bound and not (a_wins or b_wins):
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound or (b_wins and gain > 0):
        return "better", gain
    return "same", gain


def compare(set_a: Sequence[dict], set_b: Sequence[dict]) -> int:
    dropped: List[str] = []
    failures = 0
    header = (f"{'workload':<20}{'metric':<23}{'unit':<12}{'A median [q1, q3] (n)':<36}"
              f"{'B median [q1, q3] (n)':<36}{'B/A':>8}{'bound':>8}  verdict")
    print(header)
    for workload in WORKLOAD_NAMES:
        for spec in metrics.REPORTED:
            a = metric_values(set_a, workload, spec.name, dropped)
            b = metric_values(set_b, workload, spec.name, dropped)
            if not a or not b:
                continue
            bound = metrics.bound(spec, workload, base=statistics.median(a))
            word, _gain = verdict(spec.better, bound, a, b)
            if spec.name == "failed_round_share" and max(b) > max(a):
                word = "worse"
            failures += word == "worse"
            qa, qb = quartiles(a), quartiles(b)
            ratio = f"{qb[1] / qa[1]:8.3f}" if qa[1] else f"{'-':>8}"
            print(
                f"{workload:<20}{spec.name:<23}{spec.unit:<12}"
                f"{_cell(qa, len(a)):<36}{_cell(qb, len(b)):<36}"
                f"{ratio}{bound:8.1%}  {word}"
                + (f"  (spread A {spread(a):.1%}, B {spread(b):.1%})"
                   if word == "unresolved" else "")
            )
        digests = {
            run["workloads"][workload]["decision_digest"]
            for run in (*set_a, *set_b)
            if workload in run["workloads"]
        }
        if digests:
            print(f"{workload:<20}decision_digest        "
                  f"{'identical' if len(digests) == 1 else 'DIFFER'} "
                  f"across {len(set_a)}+{len(set_b)} runs")
    for line in dict.fromkeys(dropped):
        print(f"left out as noisy: {line}")
    print("ratios are B's median over A's median (base = A)")
    return 1 if failures else 0


def _cell(q: Tuple[float, float, float], n: int) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] ({n})"


def noise(runs: Sequence[dict]) -> dict:
    """Per workload, the spread of every time metric over *runs*."""
    spreads: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOAD_NAMES:
        for spec in metrics.REPORTED:
            values = metric_values(runs, workload, spec.name)
            if spec.timed and len(values) >= 2:
                spreads.setdefault(workload, {})[spec.name] = spread(values)
    return {"runs": len(runs), "spreads": spreads}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--noise":
        print(json.dumps(noise(load_set(argv[1:])), indent=1))
        return 0
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    return compare(load_set(argv[:cut]), load_set(argv[cut + 1:]))


if __name__ == "__main__":
    raise SystemExit(main())
