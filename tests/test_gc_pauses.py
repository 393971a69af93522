"""``tools/gc_pauses.py`` at smoke scale: one in-process bench pass, timed GC.

The tool wraps ``bench.worker._timed_rounds`` for the duration of its run;
it must hand the harness back untouched, count collections only inside
the timed rounds, and decide exactly what the harness's own pass decides.
"""

import argparse
import gc
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "gc_pauses", ROOT / "tools" / "gc_pauses.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_reports_pauses_and_restores_the_harness(tmp_path):
    tool = _tool()
    callbacks = list(gc.callbacks)
    result = tool.measure(
        "plan_alerts_k8", 2015, scale="smoke", seconds=15, out_dir=str(tmp_path)
    )
    from bench import worker

    assert worker._timed_rounds.__name__ == "_timed_rounds"
    assert gc.callbacks == callbacks
    assert result["rounds"] > 0 and result["timed_s"] > 0
    assert len(result["gc_collections"]) == len(result["gc_seconds"]) == 3
    assert all(n >= 0 for n in result["gc_collections"])
    assert result["tracked_after_setup"] > 0 and result["tracked_after_run"] > 0
    table = tool.format_table(result)
    assert "gen 2" in table and "GC-tracked objects" in table
    # the same decisions as the harness's plain pass of the same workload
    args = argparse.Namespace(
        workload="plan_alerts_k8", seed=2015, seconds=15, scale="smoke",
        mode="plain", out_dir=str(tmp_path),
    )
    assert worker.run(args)["decision_digest"] == result["decision_digest"]
