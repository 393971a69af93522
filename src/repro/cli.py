"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` (or the ``sheriff-repro`` entry point):

* ``balance``  — Figs. 9/10: workload std-dev over migration rounds;
* ``sweep``    — Figs. 11/12 (or 13/14 with ``--topology bcube``): cost
  and search-space comparison of regional Sheriff vs the centralized
  optimal manager across fabric sizes;
* ``forecast`` — Figs. 6–8: ARIMA / NARNET / combined-model accuracy on a
  chosen trace regime;
* ``traces``   — Figs. 3–5: summary statistics of the synthetic suite;
* ``approx``   — Sec. VI-C: empirical Local Search ratio vs the 3 + 2/p
  bound;
* ``trace``    — analyze a ``--trace`` JSONL file: ``summarize``,
  ``lifecycle <vm>``, ``diff``, and the ``lint`` invariant checker;
* ``serve``    — the always-on service: continuous alert ingest with
  bounded-queue backpressure, live ``/healthz`` + ``/metrics`` HTTP
  endpoints and graceful drain on SIGTERM (see ``docs/service.md``);
* ``slo``      — application-facing SLO accounting: ``slo report`` runs
  a surge scenario with violation-minutes charging on and prints the
  per-tenant-class / per-source ledger (see ``docs/slo.md``).

Every simulation-running command (``balance``, ``sweep``, ``approx``,
``chaos``, ``serve``) additionally accepts ``--perfetto PATH``
(nested-span flamegraph as Chrome ``trace_event`` JSON), ``--prom
PATH`` (Prometheus text exposition of the metrics registry) and
``--metrics-out PATH`` (per-round metric snapshots as JSON-lines).

Every command accepts ``--seed`` and prints plain aligned tables.  Two
global flags hook into :mod:`repro.obs` on every subcommand:

* ``--json`` emits the results as machine-readable JSON (including the
  wall-clock timing breakdown where the command runs the simulator);
* ``--trace PATH`` streams every structured trace event to *PATH* as
  JSON-lines (see ``docs/observability.md`` for the event schema).

Without either flag the plain-table output is unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _common_flags() -> argparse.ArgumentParser:
    """The per-subcommand global flags (``parents=`` share one definition)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the plain table",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        dest="trace_path",
        default=None,
        help="dump structured trace events to PATH as JSON-lines",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheriff-repro",
        description="Sheriff (ICPP 2015) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    exporters = _exporter_flags()

    p = sub.add_parser(
        "balance",
        help="workload balancing over rounds (Figs. 9/10)",
        parents=[common, exporters],
    )
    p.add_argument("--topology", choices=["fattree", "bcube"], default="fattree")
    p.add_argument("--size", type=int, default=8, help="pods (fattree) / switches per level (bcube)")
    p.add_argument("--rounds", type=int, default=24)
    p.add_argument("--alert-fraction", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser(
        "sweep",
        help="regional vs centralized sweep (Figs. 11-14)",
        parents=[common, exporters],
    )
    p.add_argument("--topology", choices=["fattree", "bcube"], default="fattree")
    p.add_argument(
        "--sizes", type=str, default="8,16,24",
        help="comma-separated pod counts / switches per level",
    )
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser(
        "forecast", help="prediction accuracy (Figs. 6-8)", parents=[common]
    )
    p.add_argument(
        "--series",
        choices=["weekly", "nonlinear", "mixed"],
        default="mixed",
        help="synthetic workload regime to forecast",
    )
    p.add_argument("--train-frac", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser(
        "traces",
        help="synthetic trace suite statistics (Figs. 3-5)",
        parents=[common],
    )
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser(
        "approx",
        help="Local Search ratio vs 3 + 2/p (Sec. VI-C)",
        parents=[common, exporters],
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--swap-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign (docs/robustness.md)",
        parents=[common, exporters],
    )
    p.add_argument("--topology", choices=["fattree", "bcube"], default="fattree")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--alert-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--loss",
        type=float,
        default=0.1,
        help="REQUEST/ACK channel loss probability in [0, 1)",
    )
    p.add_argument(
        "--slo",
        action="store_true",
        help="charge SLO-violation-minutes during the campaign "
        "(docs/slo.md); trace gains SloViolation events",
    )
    p.add_argument(
        "--output", type=str, default=None, help="write the JSON report to a file"
    )

    p = sub.add_parser(
        "adversarial",
        help="worst-case fallback campaign: guarded vs reactive bound "
        "(docs/robust-forecasting.md)",
        parents=[common, exporters],
    )
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--rounds", type=int, default=36)
    p.add_argument("--warm", type=int, default=16)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument(
        "--factor",
        type=float,
        default=1.5,
        help="worst-case bound: guarded damage <= factor * reactive + slack",
    )
    p.add_argument("--slack", type=float, default=2.0)
    p.add_argument(
        "--error-bound",
        type=float,
        default=0.08,
        help="trailing forecast error that trips the fallback governor",
    )
    p.add_argument(
        "--output", type=str, default=None, help="write the JSON report to a file"
    )

    p = sub.add_parser(
        "serve",
        help="always-on service: continuous ingest, /healthz, /metrics "
        "(docs/service.md)",
        parents=[common, exporters],
    )
    p.add_argument("--topology", choices=["fattree", "bcube"], default="fattree")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--source",
        type=str,
        default="replay",
        help="alert source: 'replay' (seeded synthetic trace), a JSONL "
        "path, or '-' for stdin",
    )
    p.add_argument(
        "--alert-fraction",
        type=float,
        default=0.05,
        help="per-tick alerting VM fraction (replay source only)",
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="replay ticks to ingest; 0 = replay forever (stop with "
        "SIGTERM or --max-rounds)",
    )
    p.add_argument(
        "--config",
        type=str,
        default=None,
        help="SheriffConfig JSON file (SheriffConfig.to_dict schema)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0, help="HTTP port; 0 picks a free one"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.05,
        help="seconds between management-round ticks",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="ingest queue capacity before the shed policy applies",
    )
    p.add_argument(
        "--shed-policy",
        choices=["drop-oldest", "drop-newest", "block"],
        default="drop-oldest",
    )
    p.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="hard stop after N management rounds",
    )

    p = sub.add_parser(
        "report",
        help="run every experiment family, emit markdown",
        parents=[common],
    )
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--full", action="store_true", help="benchmark-suite scales")
    p.add_argument("--output", type=str, default=None, help="write to file")

    p = sub.add_parser(
        "trace",
        help="analyze a JSONL event trace (docs/observability.md)",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser(
        "summarize",
        help="per-round event counts and alert-to-landed latency quantiles",
    )
    t.add_argument("path", help="trace file written with --trace PATH")
    t.add_argument("--json", action="store_true", help="emit JSON")

    t = tsub.add_parser(
        "lifecycle", help="one VM's causal chains (attempt by attempt)"
    )
    t.add_argument("path", help="trace file written with --trace PATH")
    t.add_argument("vm", type=int, help="VM id to follow")
    t.add_argument("--json", action="store_true", help="emit JSON")

    t = tsub.add_parser(
        "diff", help="per-(round, kind) event-count deltas between two traces"
    )
    t.add_argument("a", help="baseline trace (e.g. a clean run)")
    t.add_argument("b", help="compared trace (e.g. a chaos run)")
    t.add_argument("--json", action="store_true", help="emit JSON")

    t = tsub.add_parser(
        "lint",
        help="check protocol invariants (exit 1 on any violation)",
    )
    t.add_argument("path", help="trace file written with --trace PATH")
    t.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser(
        "slo",
        help="application-facing SLO accounting (docs/slo.md)",
    )
    ssub = p.add_subparsers(dest="slo_command", required=True)

    s = ssub.add_parser(
        "report",
        help="run a surge scenario with SLO accounting on; print the "
        "violation-minutes ledger per tenant class and source",
        parents=[common, exporters],
    )
    s.add_argument("--size", type=int, default=4, help="fat-tree pods")
    s.add_argument("--rounds", type=int, default=36)
    s.add_argument("--warm", type=int, default=12)
    s.add_argument("--seed", type=int, default=2015)
    s.add_argument(
        "--threshold",
        type=float,
        default=0.7,
        help="overload threshold the reactive manager alerts at",
    )
    s.add_argument(
        "--scoring",
        choices=["network", "slo"],
        default="network",
        help="migration scoring: pure Eq. (1) network cost, or network "
        "cost plus predicted SLO damage (docs/slo.md)",
    )
    s.add_argument(
        "--budget",
        type=float,
        default=0.0,
        help="per-tenant-class SLO error budget in violation-minutes "
        "(0 disables budget tracking)",
    )

    return parser


def _exporter_flags() -> argparse.ArgumentParser:
    """Exporter flags every simulation-running subcommand shares.

    A ``parents=`` parser like :func:`_common_flags`, so ``balance``,
    ``sweep``, ``approx``, ``chaos`` and ``serve`` expose the identical
    ``--perfetto`` / ``--prom`` / ``--metrics-out`` surface.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--perfetto",
        metavar="PATH",
        dest="perfetto_path",
        default=None,
        help="record nested profiler spans and write Chrome/Perfetto "
        "trace_event JSON to PATH (load in ui.perfetto.dev)",
    )
    p.add_argument(
        "--prom",
        metavar="PATH",
        dest="prom_path",
        default=None,
        help="write the final metrics registry to PATH in Prometheus "
        "text exposition format",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        dest="metrics_out_path",
        default=None,
        help="stream one JSON line of per-round metrics to PATH "
        "(next to the --trace event stream)",
    )
    return p


@contextmanager
def _tracer_for(args: argparse.Namespace):
    """The subcommand's tracer: JSONL when ``--trace PATH``, else disabled."""
    from repro.obs.tracer import NULL_TRACER, JsonlTracer

    if getattr(args, "trace_path", None):
        try:
            ctx = JsonlTracer.open(args.trace_path)
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        with ctx as tracer:
            yield tracer
    else:
        yield NULL_TRACER


@contextmanager
def _exporters_for(args: argparse.Namespace):
    """Exporter handles for a simulator command: (profiler, metrics, stream).

    Each is ``None`` unless its flag was passed.  On exit the Perfetto
    span export and the Prometheus snapshot are written from whatever the
    command recorded.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import Profiler

    profiler = (
        Profiler(record_spans=True)
        if getattr(args, "perfetto_path", None)
        else None
    )
    metrics = MetricsRegistry() if getattr(args, "prom_path", None) else None
    stream = None
    try:
        if getattr(args, "metrics_out_path", None):
            stream = open(args.metrics_out_path, "w")
        yield profiler, metrics, stream
    except OSError as exc:
        print(f"error: cannot open exporter file: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    finally:
        if stream is not None:
            stream.close()
        if profiler is not None:
            from repro.obs.export import write_chrome_trace

            with open(args.perfetto_path, "w") as fh:
                write_chrome_trace(profiler, fh)
        if metrics is not None:
            from repro.obs.export import prometheus_text

            with open(args.prom_path, "w") as fh:
                fh.write(prometheus_text(metrics))


def _emit(args: argparse.Namespace, plain: str, payload: dict) -> None:
    """Print the plain table, or the JSON payload under ``--json``."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plain)


def _build_topology(kind: str, size: int):
    from repro.topology import build_bcube, build_fattree

    return build_fattree(size) if kind == "fattree" else build_bcube(size)


def _cluster_for(kind: str, size: int, seed: int, skew: float = 0.8):
    from repro.cluster import build_cluster

    hosts = 4 if kind == "fattree" else max(2, size)
    return build_cluster(
        _build_topology(kind, size),
        hosts_per_rack=hosts,
        fill_fraction=0.5,
        skew=skew,
        seed=seed,
        delay_sensitive_fraction=0.0,
    )


def cmd_balance(args: argparse.Namespace) -> int:
    from repro.analysis import Series, format_series
    from repro.config import SheriffConfig
    from repro.sim import SheriffSimulation, inject_fraction_alerts

    cluster = _cluster_for(args.topology, args.size, args.seed, skew=1.1)
    with _tracer_for(args) as tracer, _exporters_for(args) as (
        profiler,
        metrics,
        stream,
    ):
        sim = SheriffSimulation(
            cluster,
            SheriffConfig(
                balance_weight=25.0,
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
                metrics_stream=stream,
            ),
        )
        for r in range(args.rounds):
            alerts, vma = inject_fraction_alerts(
                cluster, args.alert_fraction, time=r, seed=args.seed + r
            )
            sim.run_round(alerts, vma)
    series = sim.workload_std_series()
    plain = format_series(
        f"Workload std-dev (%) on {args.topology}-{args.size}, "
        f"{args.alert_fraction:.0%} alerting per round",
        [Series("std_dev_pct", list(range(len(series))), series.tolist())],
        x_label="round",
    )
    payload = {
        "command": "balance",
        "topology": args.topology,
        "size": args.size,
        "rounds": args.rounds,
        "alert_fraction": args.alert_fraction,
        "seed": args.seed,
        "std_dev_pct": series.tolist(),
        "migrations": sum(s.migrations for s in sim.history),
        "requests": sum(s.requests for s in sim.history),
        "rejects": sum(s.rejects for s in sim.history),
        "total_cost": sum(s.total_cost for s in sim.history),
        "timings": sim.timing_breakdown(),
        "metrics": sim.metrics.as_dict(),
    }
    _emit(args, plain, payload)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.costs.model import CostModel
    from repro.obs.profiling import Profiler
    from repro.sim import (
        centralized_migration_round,
        inject_fraction_alerts,
        regional_migration_round,
    )

    sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    rows = []
    with _tracer_for(args) as tracer, _exporters_for(args) as (
        xprofiler,
        metrics,
        _stream,  # sweep has no per-round metrics window to stream
    ):
        profiler = xprofiler if xprofiler is not None else Profiler()
        for size in sizes:
            cluster = _cluster_for(args.topology, size, args.seed, skew=0.5)
            cm = CostModel(cluster)
            _, vma = inject_fraction_alerts(cluster, 0.05, seed=args.seed)
            cands = sorted(vma)
            reg = regional_migration_round(
                cluster,
                cm,
                cands,
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
            )
            cen = centralized_migration_round(
                cluster, cm, cands, tracer=tracer, profiler=profiler
            )
            rows.append(
                {
                    "size": size,
                    "sheriff_cost": reg.total_cost,
                    "optimal_cost": cen.total_cost,
                    "sheriff_space": reg.search_space,
                    "central_space": cen.search_space,
                }
            )
    plain = format_table(
        f"Sheriff vs centralized optimal on {args.topology} "
        "(cost and search space)",
        rows,
    )
    payload = {
        "command": "sweep",
        "topology": args.topology,
        "seed": args.seed,
        "rows": rows,
        "timings": dict(profiler.totals),
    }
    _emit(args, plain, payload)
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.forecast import ARIMA, NARNET, DynamicModelSelector, mse
    from repro.forecast.selection import rolling_one_step
    from repro.traces import mixed_trace, nonlinear_trace, weekly_traffic_trace

    makers = {
        "weekly": lambda: weekly_traffic_trace(seed=args.seed),
        "nonlinear": lambda: nonlinear_trace(1000, seed=args.seed),
        "mixed": lambda: mixed_trace(seed=args.seed),
    }
    y = makers[args.series]()
    train = int(args.train_frac * len(y))
    actual = y[train:]
    with _tracer_for(args) as tracer:
        arima = rolling_one_step(lambda: ARIMA(1, 1, 1), y, train, refit_every=120)
        narnet = rolling_one_step(
            lambda: NARNET(ni=10, nh=16, restarts=1, seed=1, maxiter=150),
            y,
            train,
            refit_every=120,
        )
        selector = DynamicModelSelector(
            {
                "arima": lambda: ARIMA(1, 1, 1),
                "narnet": lambda: NARNET(ni=10, nh=16, restarts=1, seed=1, maxiter=150),
            },
            period=20,
            refit_every=120,
            tracer=tracer,
        )
        combined = selector.run(y, train).predictions
    results = {
        "arima_mse": mse(actual, arima),
        "narnet_mse": mse(actual, narnet),
        "combined_mse": mse(actual, combined),
    }
    plain = format_table(
        f"One-step prediction MSE on the {args.series} trace "
        f"(train {train} / test {len(actual)})",
        [results],
    )
    payload = {
        "command": "forecast",
        "series": args.series,
        "seed": args.seed,
        "train": train,
        "test": len(actual),
        **results,
    }
    _emit(args, plain, payload)
    return 0


def cmd_traces(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.traces import ZopleCloudTraces

    suite = ZopleCloudTraces.generate(args.seed)
    names = ["cpu_pct", "disk_io_mb", "weekly_traffic_mb"]
    rows = []
    for arr in (suite.cpu, suite.disk_io, suite.weekly_traffic):
        rows.append(
            {
                "mean": float(arr.mean()),
                "max": float(arr.max()),
                "std": float(arr.std()),
                "burst_ratio": float(arr.max() / max(np.median(arr), 1e-9)),
            }
        )
    plain = format_table(
        "Synthetic ZopleCloud traces (rows: CPU %, disk I/O MB, weekly MB)",
        rows,
    )
    payload = {
        "command": "traces",
        "seed": args.seed,
        "traces": dict(zip(names, rows)),
    }
    with _tracer_for(args):
        pass  # no simulator events here; --trace yields an empty file
    _emit(args, plain, payload)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.kmedian import KMedianInstance, exact_kmedian, local_search
    from repro.obs.profiling import Profiler

    rng = np.random.default_rng(args.seed)
    ratios = []
    with _tracer_for(args), _exporters_for(args) as (xprofiler, metrics, _stream):
        profiler = xprofiler if xprofiler is not None else Profiler()
        for trial in range(args.trials):
            n = int(rng.integers(8, 14))
            k = int(rng.integers(2, min(5, n - 1)))
            inst = KMedianInstance.from_points(rng.random((n, 2)), k)
            _, opt = exact_kmedian(inst)
            res = local_search(inst, p=args.swap_size, seed=trial, profiler=profiler)
            if opt > 1e-12:
                ratios.append(res.cost / opt)
                if metrics is not None:
                    metrics.counter("kmedian_trials_total").inc()
                    metrics.histogram("kmedian_approx_ratio").observe(
                        res.cost / opt
                    )
    bound = 3.0 + 2.0 / args.swap_size
    results = {
        "max_ratio": float(np.max(ratios)),
        "mean_ratio": float(np.mean(ratios)),
        "bound": bound,
    }
    plain = format_table(
        f"Local Search (p={args.swap_size}) vs exact optimum, "
        f"{args.trials} instances",
        [results],
    )
    payload = {
        "command": "approx",
        "trials": args.trials,
        "swap_size": args.swap_size,
        "seed": args.seed,
        **results,
        "timings": dict(profiler.totals),
    }
    _emit(args, plain, payload)
    return 0 if max(ratios) <= bound else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.config import SheriffConfig
    from repro.faults import ChannelPolicy, run_chaos_campaign

    with _tracer_for(args) as tracer, _exporters_for(args) as (
        profiler,
        metrics,
        stream,
    ):
        report = run_chaos_campaign(
            topology=args.topology,
            size=args.size,
            rounds=args.rounds,
            seed=args.seed,
            alert_fraction=args.alert_fraction,
            channel=ChannelPolicy(
                loss_probability=args.loss, max_retries=3, seed=args.seed
            ),
            config=SheriffConfig(
                slo=args.slo,
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
                metrics_stream=stream,
            ),
        )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    plain = format_table(
        f"Chaos campaign on {args.topology}-{args.size} "
        f"(seed {args.seed}, {args.rounds} rounds, loss {args.loss:.0%})",
        report["rounds"],
    ) + "\ntotals: " + json.dumps(report["totals"], sort_keys=True)
    _emit(args, plain, report)
    return 0


def cmd_adversarial(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.config import SheriffConfig
    from repro.faults import run_adversarial_campaign

    with _tracer_for(args) as tracer, _exporters_for(args) as (
        profiler,
        metrics,
        stream,
    ):
        report = run_adversarial_campaign(
            size=args.size,
            rounds=args.rounds,
            warm=args.warm,
            seed=args.seed,
            overload_threshold=args.threshold,
            factor=args.factor,
            slack=args.slack,
            error_bound=args.error_bound,
            config=SheriffConfig(
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
                metrics_stream=stream,
            ),
        )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = [
        {"arm": name, **metrics_row}
        for name, metrics_row in report["arms"].items()
    ]
    plain = format_table(
        f"Adversarial campaign on fattree-{args.size} "
        f"(seed {args.seed}, {args.rounds} rounds, "
        f"bound {args.factor}x + {args.slack})",
        rows,
    ) + "\nbound: " + json.dumps(report["bound"], sort_keys=True)
    _emit(args, plain, report)
    return 0 if report["bound"]["holds"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.config import SheriffConfig
    from repro.errors import ConfigurationError
    from repro.service.ingest import JsonlAlertSource, ReplayAlertSource
    from repro.service.server import ServeSettings, SheriffService
    from repro.sim import SheriffSimulation

    if args.config:
        try:
            with open(args.config) as fh:
                cfg = SheriffConfig.from_dict(json.load(fh))
        except (OSError, ValueError, ConfigurationError) as exc:
            print(f"error: cannot load config: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        cfg = SheriffConfig(balance_weight=25.0)
    try:
        settings = ServeSettings(
            host=args.host,
            port=args.port,
            round_interval=args.interval,
            queue_limit=args.queue_limit,
            shed_policy=args.shed_policy,
            max_rounds=args.max_rounds,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    cluster = _cluster_for(args.topology, args.size, args.seed, skew=1.1)
    with _tracer_for(args) as tracer, _exporters_for(args) as (
        profiler,
        metrics,
        stream,
    ):
        sim = SheriffSimulation(
            cluster,
            cfg.replace(
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
                metrics_stream=stream,
            ),
        )
        if args.source == "replay":
            source = ReplayAlertSource(
                cluster,
                fraction=args.alert_fraction,
                rounds=args.rounds,
                seed=args.seed,
            )
        else:
            source = JsonlAlertSource(args.source)
        service = SheriffService(sim, source, settings)

        async def _serve():
            runner = asyncio.create_task(service.run())
            while service.bound_port is None and not runner.done():
                await asyncio.sleep(0.005)
            if service.bound_port is not None:
                # the ready line: smoke tests parse this to find the port
                print(
                    json.dumps(
                        {
                            "serving": True,
                            "host": settings.host,
                            "port": service.bound_port,
                        }
                    ),
                    flush=True,
                )
            return await runner

        report = asyncio.run(_serve())
    payload = {
        "command": "serve",
        "topology": args.topology,
        "size": args.size,
        "seed": args.seed,
        "source": args.source,
        **report,
    }
    _emit(
        args,
        "serve: "
        + ", ".join(f"{k}={report[k]}" for k in sorted(report)),
        payload,
    )
    return 0 if report["clean_drain"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import generate_report

    with _tracer_for(args) as tracer:
        text = generate_report(args.seed, fast=not args.full, tracer=tracer)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        if getattr(args, "json", False):
            print(json.dumps({"command": "report", "output": args.output}))
        else:
            print(f"wrote {args.output}")
    else:
        _emit(
            args,
            text,
            {"command": "report", "output": None, "markdown": text},
        )
    return 0


def _load_trace_or_die(path: str):
    from repro.obs.tracer import load_trace

    try:
        return load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.analysis import (
        diff_traces,
        lint_trace,
        summarize_trace,
        vm_lifecycle,
    )

    if args.trace_command == "summarize":
        summary = summarize_trace(_load_trace_or_die(args.path))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        lat = summary["alert_to_landed_rounds"]
        print(
            f"{summary['events']} events over {summary['rounds']} rounds, "
            f"{summary['attempts']} migration attempts"
        )
        for kind, count in summary["totals"].items():
            print(f"  {kind:<22} {count}")
        if summary["no_landings"]:
            print("alert->landed latency (rounds): no landings")
        else:
            print(
                f"alert->landed latency (rounds): "
                f"p50={lat['p50']:g} p95={lat['p95']:g} p99={lat['p99']:g} "
                f"max={lat['max']:g} over {lat['count']} landings"
            )
        slo = summary.get("slo")
        if slo:
            print(
                f"slo violation-minutes: {slo['violation_minutes']:.4f} total"
            )
            for tenant, minutes in slo["by_tenant"].items():
                print(f"  tenant {tenant:<8} {minutes:.4f}")
            for source, minutes in slo["by_source"].items():
                print(f"  source {source:<8} {minutes:.4f}")
            ep = slo["episodes"]
            print(
                f"  episodes: {ep['count']} "
                f"(p50={ep['p50_rounds']:g} p99={ep['p99_rounds']:g} "
                f"max={ep['max_rounds']:g} rounds)"
            )
            if slo["budget_exhausted"]:
                print(
                    "  budget exhausted: "
                    + ", ".join(slo["budget_exhausted"])
                )
        return 0

    if args.trace_command == "lifecycle":
        life = vm_lifecycle(_load_trace_or_die(args.path), args.vm)
        if args.json:
            print(json.dumps(life, indent=2, sort_keys=True))
            return 0
        if not life["attempts"]:
            print(f"vm {args.vm}: no events in trace")
            return 0
        for attempt in life["attempts"]:
            parent = attempt["parent_id"] or "-"
            print(
                f"attempt {attempt['trace_id']} (parent {parent}) -> "
                f"{attempt['outcome']}"
            )
            for ev in attempt["events"]:
                extra = ", ".join(
                    f"{k}={ev[k]}"
                    for k in ("dst_host", "dst_rack", "reason", "attempts")
                    if k in ev and ev[k] not in (None, "")
                )
                print(f"  round {ev.get('round')}: {ev['event']}"
                      + (f" ({extra})" if extra else ""))
        return 0

    if args.trace_command == "diff":
        diff = diff_traces(
            _load_trace_or_die(args.a), _load_trace_or_die(args.b)
        )
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        elif diff["identical"]:
            print(
                f"traces agree: {diff['a_events']} events each, "
                f"identical per-round census"
            )
        else:
            print(
                f"{diff['a_events']} vs {diff['b_events']} events; "
                f"{len(diff['rows'])} differing (round, kind) rows:"
            )
            for row in diff["rows"]:
                print(
                    f"  round {row['round']}: {row['event']:<22} "
                    f"{row['a']} -> {row['b']} ({row['delta']:+d})"
                )
        return 0

    assert args.trace_command == "lint"
    violations = lint_trace(_load_trace_or_die(args.path))
    if args.json:
        print(
            json.dumps(
                {
                    "violations": [
                        {"rule": v.rule, "line": v.line, "message": v.message}
                        for v in violations
                    ]
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif not violations:
        print("trace is clean: all protocol invariants hold")
    else:
        for v in violations:
            print(str(v))
        print(f"{len(violations)} violation(s)")
    return 1 if violations else 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.cluster import build_cluster
    from repro.config import SheriffConfig
    from repro.sim import (
        ReactiveManager,
        SheriffSimulation,
        host_surges,
        run_managed_simulation,
    )
    from repro.errors import ConfigurationError
    from repro.topology import build_fattree

    assert args.slo_command == "report"
    cluster = build_cluster(
        build_fattree(args.size),
        hosts_per_rack=4,
        fill_fraction=0.5,
        skew=1.1,
        seed=args.seed,
        delay_sensitive_fraction=0.1,
    )
    try:
        workload, _surges = host_surges(
            cluster,
            args.rounds,
            fraction=0.25,
            earliest=args.warm,
            latest=max(args.warm + 1, args.rounds - 6),
            ramp_len=6,
            peak=0.97,
            seed=args.seed,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    manager = ReactiveManager(workload, threshold=args.threshold)
    with _tracer_for(args) as tracer, _exporters_for(args) as (
        profiler,
        metrics,
        stream,
    ):
        sim = SheriffSimulation(
            cluster,
            SheriffConfig(
                balance_weight=25.0,
                slo=True,
                scoring=args.scoring,
                slo_overload_threshold=args.threshold,
                slo_budget_minutes=args.budget,
                tracer=tracer,
                profiler=profiler,
                metrics=metrics,
                metrics_stream=stream,
            ),
        )
        run = run_managed_simulation(
            sim,
            workload,
            manager,
            warm=args.warm,
            horizon=args.rounds,
            overload_threshold=args.threshold,
        )
    ledger = sim.slo.summary()
    lines = [
        f"SLO report on fattree-{args.size} (seed {args.seed}, "
        f"{args.rounds} rounds, scoring {args.scoring})",
        f"  migrations {run.migrations}, overload rounds "
        f"{run.overload_rounds}, network cost {run.total_cost:.1f}",
        f"violation-minutes: {ledger['total_minutes']:.4f} total",
    ]
    for tenant, minutes in sorted(ledger["by_class"].items()):
        lines.append(f"  tenant {tenant:<8} {minutes:.4f}")
    for source, minutes in sorted(ledger["by_source"].items()):
        lines.append(f"  source {source:<8} {minutes:.4f}")
    ep = ledger["episodes"]
    lines.append(
        f"episodes: {ep['count']} (p50={ep['p50_rounds']:g} "
        f"p99={ep['p99_rounds']:g} max={ep['max_rounds']:g} rounds)"
    )
    if ledger["budget_minutes"] > 0:
        exhausted = ledger["budget_exhausted"]
        lines.append(
            f"budget {ledger['budget_minutes']:g} min/class; exhausted: "
            + (", ".join(exhausted) if exhausted else "none")
        )
    payload = {
        "command": "slo-report",
        "size": args.size,
        "rounds": args.rounds,
        "warm": args.warm,
        "seed": args.seed,
        "threshold": args.threshold,
        "scoring": args.scoring,
        "migrations": run.migrations,
        "overload_rounds": run.overload_rounds,
        "total_cost": run.total_cost,
        "slo": ledger,
        "timings": run.timings,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


_COMMANDS = {
    "balance": cmd_balance,
    "sweep": cmd_sweep,
    "forecast": cmd_forecast,
    "traces": cmd_traces,
    "approx": cmd_approx,
    "chaos": cmd_chaos,
    "adversarial": cmd_adversarial,
    "serve": cmd_serve,
    "report": cmd_report,
    "trace": cmd_trace,
    "slo": cmd_slo,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        import os

        try:
            sys.stdout.close()
        except OSError:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
