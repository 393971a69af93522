#!/usr/bin/env python
""""Same decisions" as a command (the `make digest-smoke` gate).

Runs the five ``bench/`` workloads at smoke size through
``python -m bench.worker --scale smoke --seed 2015 --mode plain`` — the
harness's own child process, read and never edited — and compares each
``decision_digest`` (a hash over every round's ``RoundSummary`` and the
final placement) with ``tools/smoke_digests.json``.  A performance or
refactoring PR must pass against the file unmodified; a PR that changes
decisions on purpose re-records it with ``--record`` and says why.

Exits non-zero, naming the workloads, when a digest moved or a worker
failed one of its own checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("smoke_digests.json")
SEED = 2015


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True,
                        help="scratch directory handed to the workers")
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {GOLDEN.name} instead of comparing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from bench import WORKLOAD_NAMES
    from bench import __main__ as harness

    # the harness's own child process: its environment, its timeout
    run = argparse.Namespace(
        seed=SEED, seconds=15, scale="smoke", out_dir=args.out_dir
    )
    got = {}
    for name in WORKLOAD_NAMES:
        try:
            record = harness._worker(name, "plain", run)
        except harness.HarnessError as exc:
            print(f"digest-smoke: {exc}", file=sys.stderr)
            return 1
        if record["problems"]:
            print(f"digest-smoke: {name}: {record['problems']}", file=sys.stderr)
            return 1
        got[name] = record["decision_digest"]
    if args.record:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        print(f"digest-smoke: recorded {len(got)} digests in {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text())
    moved = [name for name in got if got[name] != want.get(name)]
    for name in moved:
        print(f"digest-smoke: {name}: {got[name][:12]} != recorded "
              f"{str(want.get(name))[:12]}", file=sys.stderr)
    if moved or set(want) != set(got):
        print("digest-smoke: FAIL: decisions changed "
              "(re-record with --record only if that is the point of the PR)",
              file=sys.stderr)
        return 1
    print(f"digest-smoke: {len(got)} workloads, decisions unchanged: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
