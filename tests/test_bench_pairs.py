"""``tools/bench_pairs.py`` survives a failed run.

A stub driver stands in for the harness: one side crashes at one seed and
the other hangs at another.  Every pair is still run, each failure is that
side's problem, the metrics are judged on the pairs both sides measured,
and the report fails.
"""

import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STUB = """
import json, sys, time
from pathlib import Path
workload, seed, seconds, out_dir = sys.argv[1:]
mode = Path("mode").read_text() if Path("mode").exists() else ""
if mode == "crash" and seed == "102":
    raise SystemExit("stub worker crashed")
if mode == "hang" and seed == "103":
    time.sleep(30)
print("a line before the record")
print(json.dumps({
    "values": {"rounds_per_s": 20.0 if Path("fast").exists() else 10.0},
    "digest": "d" + seed,
    "problems": [],
}))
"""

SPEC = {"end_to_end": [
    {"name": "rounds_per_s", "unit": "rounds/s", "better": "higher", "bound": 0.2},
]}


@pytest.fixture
def pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_DRIVER", STUB)
    monkeypatch.setattr(module, "MEASURE_TIMEOUT_S", 2)
    return module


def _trees(tmp_path, parent_mode="", change_mode=""):
    trees = {}
    for side, mode in (("parent", parent_mode), ("change", change_mode)):
        tree = tmp_path / side
        tree.mkdir()
        if mode:
            (tree / "mode").write_text(mode)
        trees[side] = tree
    (trees["change"] / "fast").write_text("")
    return trees


def test_a_crash_and_a_hang_are_recorded_and_the_pairs_go_on(pairs, tmp_path):
    trees = _trees(tmp_path, parent_mode="crash", change_mode="hang")
    runs = pairs.run_pairs(trees, ["w"], [101, 102, 103], 15, tmp_path)
    rows = runs["w"]
    assert [seed for seed, _, _ in rows] == [101, 102, 103]
    (_, p1, c1), (_, p2, c2), (_, p3, c3) = rows
    assert p2["problems"] == ["run failed: exited 1"] and p2["digest"] is None
    assert c3["problems"] == ["run failed: timed out after 2 s"]
    assert c2["values"] == {"rounds_per_s": 20.0} and p3["digest"] == "d103"
    out = io.StringIO()
    assert not pairs.report(SPEC, runs, out)
    text = out.getvalue()
    assert "digests identical" in text  # over the pairs both sides measured
    assert "FAILED CHECK: parent seed 102: run failed: exited 1" in text
    assert "FAILED CHECK: change seed 103: run failed: timed out" in text
    assert "won 1/1" in text  # only seed 101 is a whole pair


def test_clean_runs_pass(pairs, tmp_path):
    runs = pairs.run_pairs(_trees(tmp_path), ["w"], [101, 102], 15, tmp_path)
    out = io.StringIO()
    assert pairs.report(SPEC, runs, out)
    assert "won 2/2" in out.getvalue() and "FAILED" not in out.getvalue()


CHECKS_STUB = """
import json, sys
from pathlib import Path
workload, seed, seconds, out_dir = sys.argv[1:]
change = Path("fast").exists()
print(json.dumps({
    "values": {
        "rounds_per_s": 10.0,
        "round_ms_slow10": (10.0 if change else 20.0) + int(seed) % 3,
        "failed_round_share": 0.01 if change and seed == "102" else 0.0,
        "overload_host_rounds": 58.0,
    },
    "digest": "d" + seed,
    "problems": [],
}))
"""


def test_the_check_rows_are_judged_where_they_apply(pairs, tmp_path, monkeypatch):
    """``round_ms_slow10`` is a row on a bimodal workload only; a rise in
    ``failed_round_share`` is worse, and fails the report."""
    monkeypatch.setattr(pairs, "_DRIVER", CHECKS_STUB)
    workloads = ["managed_surge_k8", "plan_alerts_k8"]
    runs = pairs.run_pairs(_trees(tmp_path), workloads, [101, 102, 103, 104], 15, tmp_path)
    out = io.StringIO()
    assert not pairs.report(SPEC, runs, out)
    managed, plan = out.getvalue().split("== plan_alerts_k8")
    rows = {line.split()[0]: line for line in managed.splitlines()[1:] if line.startswith("   ")}
    assert rows["round_ms_slow10"].endswith("better") and "won 4/4" in rows["round_ms_slow10"]
    assert rows["overload_host_rounds"].endswith("same")
    assert rows["failed_round_share"].endswith("worse")
    assert "round_ms_slow10" not in plan and "overload_host_rounds" not in plan
    assert "failed_round_share" in plan
