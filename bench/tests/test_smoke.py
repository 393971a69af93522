"""Smoke tests of the benchmark harness (``python -m pytest bench/tests -q``).

Every workload runs at toy size (k=4, 12 rounds) through the *same* code
path as the real benchmark — ``python -m bench --scale smoke`` — so a
broken wrapper target, metric name or check shows here in under a minute,
not after a four-minute set.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import ROOT, WHY, WORKLOAD_NAMES, compare, metrics, spans
from bench import __main__ as harness

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _invoke(out_dir: Path, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "smoke", "--out-dir",
         str(out_dir), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return json.loads((out_dir / "result.json").read_text())


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    """Two full smoke invocations (plain + span pass) of the same seed."""
    return [
        _invoke(tmp_path_factory.mktemp(f"run{i}"), "--seed", "11") for i in (1, 2)
    ]


def test_result_schema(invocations):
    result = invocations[0]
    assert result["correct"] is True
    assert set(result) >= {"schema", "seed", "seconds", "scale", "workloads", "correct"}
    assert tuple(result["workloads"]) == WORKLOAD_NAMES
    for name, entry in result["workloads"].items():
        assert set(entry) >= {
            "rounds", "samples", "decision_digest", "span_digest", "noisy",
            "slowdown", "end_to_end", "wall_clock", "per_layer", "problems",
            "correct", "round_ms",
        }
        assert entry["samples"] == entry["rounds"] <= 12
        assert entry["end_to_end"]["failed_round_share"]["value"] == 0.0
        expected = {m.name for m in metrics.REPORTED if m.applies(name)}
        assert set(entry["end_to_end"]) == set(entry["wall_clock"]) == expected
        # the wall-clock block is the issue's definition on the raw rounds
        assert entry["wall_clock"]["rounds_per_s"]["value"] == pytest.approx(
            1e3 * entry["samples"] / sum(entry["round_ms"])
        )
        assert set(entry["per_layer"]) == {
            *metrics.PER_LAYER_NAMES, metrics.SPAN_OVERHEAD.name
        }
        for block in ("end_to_end", "wall_clock", "per_layer"):
            for cell in entry[block].values():
                assert set(cell) == {"value", "unit"}
        assert Path(entry["spans_file"]).is_file()


def test_names_fit_the_contract(invocations):
    names = [*WORKLOAD_NAMES, metrics.SPAN_OVERHEAD.name]
    names += [m.name for m in metrics.REPORTED] + list(metrics.PER_LAYER_NAMES)
    for entry in invocations[0]["workloads"].values():
        names += [*entry["end_to_end"], *entry["per_layer"]]
    for name in names:
        assert NAME.match(name), name
    assert len(set(metrics.PER_LAYER_NAMES)) == len(metrics.PER_LAYER_NAMES) <= 128
    assert len(metrics.REPORTED) == 10


def test_digests_repeat_and_passes_agree(invocations):
    first, second = invocations
    for name in WORKLOAD_NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["decision_digest"] == b["decision_digest"]
        assert a["decision_digest"] == a["span_digest"]


def test_seed_reaches_the_generators(invocations, tmp_path):
    other = _invoke(tmp_path, "--seed", "12", "--no-spans",
                    "--workloads", "plan_alerts_k8,degraded_traced_k8")
    assert tuple(other["workloads"]) == ("plan_alerts_k8", "degraded_traced_k8")
    for name, entry in other["workloads"].items():
        assert "per_layer" not in entry
        assert (entry["decision_digest"]
                != invocations[0]["workloads"][name]["decision_digest"])


def test_same_code_sets_compare_clean(invocations, tmp_path, capsys):
    # digests and decision metrics identical; smoke timings are too short
    # to gate, so only the exit-on-failure rule is exercised on them
    assert compare.compare(invocations[:1], invocations[1:]) in (0, 1)
    out = capsys.readouterr().out
    assert "decision_digest        identical" in out
    assert "DIFFER" not in out
    broken = json.loads(json.dumps(invocations[1]))
    broken["workloads"]["ladder_k32"]["end_to_end"]["failed_round_share"]["value"] = 0.5
    assert compare.compare(invocations[:1], [broken]) == 1


@pytest.mark.parametrize("trace, specs", [("0", metrics.END_TO_END),
                                          ("1", metrics.PER_LAYER)])
def test_contract_mode_prints_the_result_line(tmp_path, trace, specs):
    # the command BENCHMARK.json's consumer runs, at toy size
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "degraded_traced_k8",
         "--seed", "11", "--seconds", "15", "--trace", trace,
         "--scale", "smoke", "--out-dir", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 12, 0)
    assert list(result["metrics"]) == [m.name for m in specs]
    for spec in specs:
        cell = result["metrics"][spec.name]
        assert cell["unit"] == spec.unit and isinstance(cell["value"], float)


def test_contract_mode_reports_a_failed_run(monkeypatch):
    # round 0 raised: no round times, no migrations, still a result line
    record = {
        "problems": ["12 of 12 rounds failed"], "error": "Traceback ...",
        "attempted": 12, "failed": 12, "round_s": [], "migrations": 0,
        "total_cost": 0.0, "setup_s": 0.1, "peak_rss_mb": 90.0,
        "overload_host_rounds": 0, "workload_std_final": 1.0,
        "slo_violation_minutes": None,
    }
    record["slowdown"] = 1.1
    monkeypatch.setattr(harness, "_worker", lambda *_: record)
    args = argparse.Namespace(workloads=["plan_alerts_k8"], trace=0)
    result = harness.run_contract(args)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 12, 12)
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "workload_std_final"}


def test_calibration_kernel_reads_the_box():
    from bench import calibrate

    slices = calibrate.read()
    assert len(slices) == 2
    # the same order of magnitude as the reference on any box we would use
    assert all(calibrate.REFERENCE_S / 20 < s < calibrate.REFERENCE_S * 20
               for s in slices)


def test_times_are_scaled_to_the_reference_speed():
    raw = {
        "round_s": [0.02, 0.04, 0.06], "setup_s": 1.0, "slowdown": 2.0,
        "peak_rss_mb": 100.0, "attempted": 3, "failed": 0, "migrations": 4,
        "total_cost": 10.0, "overload_host_rounds": 0,
        "workload_std_final": 5.0, "slo_violation_minutes": None,
    }
    wall = metrics.end_to_end_values(raw, wall_clock=True)
    ref = metrics.end_to_end_values(raw)
    assert wall["rounds_per_s"] == pytest.approx(25.0)
    assert (wall["round_ms_p50"], wall["setup_s"]) == pytest.approx((40.0, 1.0))
    # a box running at half speed: every time halves, nothing else moves
    assert ref["rounds_per_s"] == pytest.approx(50.0)
    assert (ref["round_ms_p50"], ref["round_ms_slow10"], ref["setup_s"]) \
        == pytest.approx((20.0, 30.0, 0.5))
    for name in ("peak_rss_mb", "cost_per_migration", "workload_std_final",
                 "failed_round_share"):
        assert ref[name] == wall[name]


def test_bounds_follow_the_noise_rule(monkeypatch):
    monkeypatch.setattr(metrics, "_NOISE", {
        "plan_alerts_k8": {"rounds_per_s": 0.04, "setup_s": 0.02},
        "ladder_k32": {"rounds_per_s": 0.08},
        "managed_surge_k8": {"rounds_per_s": 0.20, "round_ms_slow10": 0.03},
        "degraded_traced_k8": {"round_ms_slow10": 0.11},
    })
    by_name = metrics.REPORTED_BY_NAME
    speed = by_name["rounds_per_s"]
    assert metrics.bound(speed, "plan_alerts_k8") == 0.10  # spread <= half the default
    assert metrics.bound(speed, "ladder_k32") == 0.16  # twice the spread
    assert metrics.bound(speed, "managed_surge_k8") == 0.25  # capped
    assert metrics.contract_bound(speed) == 0.25  # the widest over the workloads
    assert metrics.bound(by_name["round_ms_slow10"], "managed_surge_k8") == 0.10
    assert metrics.bound(by_name["round_ms_slow10"], "degraded_traced_k8") == 0.25
    assert metrics.bound(by_name["setup_s"], "plan_alerts_k8") == 0.20
    assert metrics.bound(by_name["setup_s"], "plan_alerts_k8", base=1.0) == 0.50
    # decision metrics repeat exactly: a tolerance, whatever the noise file says
    assert metrics.bound(by_name["cost_per_migration"], "ladder_k32") == 0.02


def test_verdicts():
    def verdict(a, b):
        return compare.verdict("higher", 0.10, a, b)[0]

    base = [10.0, 10.1, 9.9]
    assert verdict(base, [10.0, 10.05, 9.95]) == "same"
    assert verdict(base, [8.0, 8.1, 7.9]) == "worse"
    assert verdict(base, [12.0, 12.1, 11.9]) == "better"
    # spread wider than the bound and the sets overlap: cannot be answered
    assert verdict([8.0, 10.0, 12.0], [9.0, 10.0, 11.0]) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert verdict([8.0, 10.0, 12.0], [13.0, 15.0, 17.0]) == "better"
    assert compare.verdict("lower", 0.10, base, [8.0, 8.1, 7.9])[0] == "better"


def test_idle_layer_assertions_fire_when_violated():
    clean = {"service.round": {"calls": 12, "run_calls": 12}}
    fired, idle = ("service.round",), ("forecast.refit", "faults.begin_round")
    assert metrics.check_layers(fired, idle, clean, {}) == []
    refit = {**clean, "forecast.refit": {"calls": 3, "run_calls": 3}}
    assert any("forecast.refit" in p
               for p in metrics.check_layers(fired, idle, refit, {}))
    assert any("faults.injected" in p
               for p in metrics.check_layers(fired, idle, clean,
                                             {"faults.injected": 1.0}))
    assert any("pool_rounds" in p
               for p in metrics.check_layers(fired, idle, clean,
                                             {"parallel.pool_rounds": 2.0}))
    assert any("never fired" in p
               for p in metrics.check_layers(fired, idle, {}, {}))


def test_missing_wrapper_target_fails_loudly():
    recorder = spans.SpanRecorder(enabled=True)
    with pytest.raises(AttributeError, match="is gone"):
        with spans.installed(recorder, [("json", "no_such_function", "x.y")]):
            pass
    # and a good target is wrapped inside the block, restored after it
    original = json.dumps
    with spans.installed(recorder, [("json", "dumps", "json.dumps")]):
        assert json.dumps is not original
        json.dumps({})
    assert json.dumps is original
    assert [s[spans.NAME] for s in recorder.spans] == ["json.dumps"]


def test_self_time_is_span_minus_children():
    rows = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    assert spans.self_times(rows) == [7.0, 2.0, 1.0]


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in doc["workloads"]) == WORKLOAD_NAMES
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": metrics.contract_bound(m)}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    assert doc["workloads"] == [{"name": n, "why": why} for n, why in WHY.items()]
