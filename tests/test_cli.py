"""CLI smoke and contract tests."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs.tracer import load_trace


def test_version_is_one_fact():
    tomllib = pytest.importorskip("tomllib")  # 3.11+; requires-python is 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert repro.__version__ == project["version"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["balance"])
        assert args.topology == "fattree"
        assert args.rounds == 24

    @pytest.mark.parametrize("command", ["balance", "serve", "forecast"])
    def test_workers_flag_is_gone(self, command, capsys):
        # planning is always inline: the flag is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--workers", "4"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "CPU" in out and "burst_ratio" in out

    def test_approx_within_bound(self, capsys):
        assert main(["approx", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max_ratio" in out

    def test_balance_small(self, capsys):
        code = main(
            ["balance", "--size", "4", "--rounds", "4", "--seed", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "std_dev_pct" in out
        assert out.count("\n") >= 6  # header + 5 rounds

    def test_sweep_small(self, capsys):
        assert main(["sweep", "--sizes", "4,8", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "sheriff_cost" in out and "central_space" in out

    def test_sweep_bcube(self, capsys):
        assert main(["sweep", "--topology", "bcube", "--sizes", "4", "--seed", "2"]) == 0
        assert "bcube" in capsys.readouterr().out

    def test_forecast_nonlinear(self, capsys):
        assert main(["forecast", "--series", "nonlinear", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "narnet_mse" in out

    def test_balance_bcube(self, capsys):
        assert main(
            ["balance", "--topology", "bcube", "--size", "4", "--rounds", "3"]
        ) == 0
        assert "bcube-4" in capsys.readouterr().out


class TestMachineOutput:
    def test_balance_json_payload(self, capsys):
        code = main(
            ["balance", "--size", "4", "--rounds", "4", "--seed", "9", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "balance"
        assert payload["rounds"] == 4
        assert len(payload["std_dev_pct"]) == 5  # initial + 4 rounds
        assert isinstance(payload["migrations"], int)
        assert "timings" in payload and "round" in payload["timings"]

    def test_traces_json_payload(self, capsys):
        assert main(["traces", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "traces"
        assert "cpu_pct" in payload["traces"]
        assert "burst_ratio" in payload["traces"]["cpu_pct"]

    def test_sweep_json_payload(self, capsys):
        assert main(["sweep", "--sizes", "4", "--seed", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sweep"
        assert payload["rows"][0]["size"] == 4
        assert "timings" in payload

    def test_json_flag_on_every_subcommand(self):
        parser = build_parser()
        for cmd in ("traces", "forecast", "balance", "sweep", "approx", "report"):
            args = parser.parse_args([cmd, "--json"])
            assert args.json is True
            assert args.trace_path is None

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "balance.jsonl"
        code = main(
            [
                "balance",
                "--size", "4",
                "--rounds", "4",
                "--seed", "9",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        events = load_trace(trace)
        assert events, "trace file must not be empty"
        kinds = {e["event"] for e in events}
        assert "AlertDelivered" in kinds
        assert "PrioritySelected" in kinds
        assert all("round" in e for e in events)

    def test_plain_output_unchanged_by_trace(self, capsys, tmp_path):
        argv = ["balance", "--size", "4", "--rounds", "4", "--seed", "9"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out == plain


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for section in (
            "Traces (Figs. 3-5)",
            "Prediction (Figs. 6-8)",
            "Balancing (Figs. 9-10)",
            "Regional vs centralized",
            "Approximation",
        ):
            assert section in out
        assert "declining" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["report", "--seed", "7", "--output", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Sheriff reproduction report")
        assert "wrote" in capsys.readouterr().out

    def test_report_trace_covers_every_event_kind(self, capsys, tmp_path):
        # the acceptance bar for the observability subsystem: one traced
        # run exercising migrations, rejects and reroutes emits at least
        # one event of every documented type (the fault vocabulary is
        # covered by the chaos campaign's trace — see TestChaosTrace;
        # FallbackTransition by the adversarial campaign / governor tests;
        # the SLO vocabulary by the opt-in SLO layer — see tests/slo)
        from repro.obs.events import EVENT_TYPES

        trace = tmp_path / "report.jsonl"
        assert main(["report", "--seed", "7", "--trace", str(trace)]) == 0
        kinds = {e["event"] for e in load_trace(trace)}
        other_layer_kinds = {
            "FaultInjected", "HostCrashed", "RequestTimedOut",
            "MigrationAborted", "FallbackTransition",
            "SloViolation", "SloBudgetExhausted",
        }
        assert kinds == {cls.__name__ for cls in EVENT_TYPES} - other_layer_kinds


class TestChaosTrace:
    def test_chaos_trace_covers_the_fault_vocabulary(self, tmp_path):
        # the acceptance bar for the fault layer: one traced campaign
        # emits every fault-event kind alongside the protocol events
        trace = tmp_path / "chaos.jsonl"
        out = tmp_path / "chaos.json"
        rc = main(
            [
                "chaos", "--size", "4", "--rounds", "8", "--seed", "2015",
                "--output", str(out), "--trace", str(trace),
            ]
        )
        assert rc == 0
        kinds = {e["event"] for e in load_trace(trace)}
        assert {
            "FaultInjected", "HostCrashed", "RequestTimedOut",
            "MigrationAborted", "RequestSent", "MigrationCommitted",
        } <= kinds


class TestServeCommand:
    def test_serve_bounded_replay(self, capsys):
        rc = main(
            [
                "serve", "--size", "4", "--rounds", "3", "--max-rounds", "6",
                "--interval", "0.01", "--seed", "2015", "--json",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ready = json.loads(lines[0])
        assert ready["serving"] and ready["port"] > 0
        report = json.loads("\n".join(lines[1:]))
        assert report["command"] == "serve"
        assert report["clean_drain"]
        assert report["planned"] == report["ingested"] > 0

    def test_serve_jsonl_source(self, capsys, tmp_path):
        feed = tmp_path / "alerts.jsonl"
        feed.write_text(
            '{"rack": 0, "kind": "local_tor", "magnitude": 1.5, "time": 0}\n'
            '{"rack": 1, "kind": "local_tor", "magnitude": 1.2, "time": 0}\n'
        )
        rc = main(
            [
                "serve", "--size", "4", "--source", str(feed),
                "--interval", "0.01", "--json",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = json.loads("\n".join(lines[1:]))
        assert report["ingested"] == 2

    def test_serve_config_file(self, capsys, tmp_path):
        from repro.config import SheriffConfig

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SheriffConfig(balance_weight=10.0).to_dict()))
        rc = main(
            [
                "serve", "--size", "4", "--rounds", "2", "--config", str(cfg),
                "--interval", "0.01", "--json",
            ]
        )
        assert rc == 0

    def test_serve_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"warp_factor": 9}')
        with pytest.raises(SystemExit):
            main(["serve", "--config", str(cfg)])

    def test_serve_names_a_removed_planner_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"balance_weight": 25.0, "planner": "sharded"}')
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "planner" in err and "removed" in err and "always inline" in err


class TestSloCommand:
    def test_slo_report_plain(self, capsys):
        rc = main(
            ["slo", "report", "--size", "4", "--rounds", "20",
             "--warm", "8", "--seed", "2015"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "violation-minutes" in out
        assert "tenant gold" in out and "source downtime" in out
        assert "episodes:" in out

    def test_slo_report_json_and_prom(self, capsys, tmp_path):
        prom = tmp_path / "slo.prom"
        rc = main(
            ["slo", "report", "--size", "4", "--rounds", "20",
             "--warm", "8", "--seed", "2015", "--json",
             "--prom", str(prom)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "slo-report"
        ledger = payload["slo"]
        assert ledger["total_minutes"] > 0.0
        assert set(ledger["by_class"]) == {"gold", "silver", "bronze"}
        # the exposition carries the family with per-tenant labels —
        # the same surface /metrics serves
        text = prom.read_text()
        assert "# TYPE sheriff_slo_violation_minutes_total counter" in text
        assert 'tenant="gold"' in text

    def test_slo_report_rejects_short_horizon(self, capsys):
        # host_surges needs >= 16 rounds; the CLI must say so, not
        # traceback
        with pytest.raises(SystemExit) as exc:
            main(["slo", "report", "--size", "4", "--rounds", "12"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_slo_scoring_variant_runs(self, capsys):
        rc = main(
            ["slo", "report", "--size", "4", "--rounds", "16",
             "--warm", "8", "--seed", "2015", "--scoring", "slo", "--json"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["scoring"] == "slo"


class TestUniformExporterFlags:
    """--perfetto/--prom/--metrics-out on every simulation-running command."""

    def test_every_sim_command_has_the_flags(self):
        parser = build_parser()
        for cmd, extra in {
            "balance": [],
            "sweep": [],
            "approx": [],
            "chaos": [],
            "serve": [],
        }.items():
            args = parser.parse_args([cmd, *extra])
            assert hasattr(args, "perfetto_path"), cmd
            assert hasattr(args, "prom_path"), cmd
            assert hasattr(args, "metrics_out_path"), cmd

    def test_sweep_perfetto_and_prom(self, capsys, tmp_path):
        perfetto = tmp_path / "sweep.perfetto.json"
        prom = tmp_path / "sweep.prom"
        rc = main(
            [
                "sweep", "--sizes", "4", "--seed", "9",
                "--perfetto", str(perfetto), "--prom", str(prom),
            ]
        )
        assert rc == 0
        spans = json.loads(perfetto.read_text())
        assert spans["traceEvents"]
        assert prom.exists()

    def test_approx_prom(self, capsys, tmp_path):
        prom = tmp_path / "approx.prom"
        rc = main(
            ["approx", "--trials", "3", "--seed", "3", "--prom", str(prom)]
        )
        assert rc == 0
        text = prom.read_text()
        assert "kmedian_trials_total" in text
        assert "kmedian_approx_ratio" in text

    def test_serve_prom_export(self, capsys, tmp_path):
        prom = tmp_path / "serve.prom"
        rc = main(
            [
                "serve", "--size", "4", "--rounds", "2",
                "--interval", "0.01", "--prom", str(prom), "--json",
            ]
        )
        assert rc == 0
        assert "sheriff_rounds_total" in prom.read_text()
