# Convenience targets for the Sheriff reproduction.

# Run straight from a checkout: the package lives under src/ and the
# benchmark helpers import as `benchmarks.*` from the repo root.  An
# installed package shadows neither (src/ simply wins on the path).
export PYTHONPATH := src:.$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install lint test bench-smoke digest-smoke gc-smoke bench-pairs bench-all figs-smoke shed-scan report examples chaos adversarial trace-lint serve-smoke ci all

install:
	pip install -e . --no-build-isolation

lint:
	python -m compileall -q src/repro
	python tools/check_import_cycles.py src/repro
	python tools/check_exception_hygiene.py src/repro

test: lint
	pytest tests/

# k=4 smoke of the real bench/ harness (< 60 s): a rename under src/
# that breaks a span wrapper target fails here, not in the next
# benchmark run.
bench-smoke:
	python -m pytest bench/tests -q

# "Same decisions" as a command: the five bench/ workloads at smoke size,
# each decision digest against tools/smoke_digests.json (~10 s).  A PR that
# changes decisions on purpose re-records the file
# (`python tools/digest_smoke.py --out-dir DIR --record`) and says why.
digest-smoke:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	python tools/digest_smoke.py --out-dir "$$d"

# Retained objects as a command (~10 s): the three workloads whose rounds
# used to leave objects behind for the garbage collector (the tracer's
# events, the per-rack records, the predictive manager's per-host model
# objects), at smoke size; exits 1 when GC-tracked objects grow by more
# than N per timed round.
gc-smoke:
	python tools/gc_pauses.py --workload degraded_traced_k8 --seed 2015 --scale smoke --max-growth 50
	python tools/gc_pauses.py --workload ladder_k32 --seed 2015 --scale smoke --max-growth 50
	python tools/gc_pauses.py --workload managed_surge_k8 --seed 2015 --scale smoke --max-growth 50

# The pairing rule as a command (~40 min): every BENCHMARK.json workload on
# HEAD (a temporary `git worktree`) and on the working tree, ten seeds, the
# sides alternating; medians, quartiles, pairs won and a verdict per
# end-to-end metric, with the per-run values of any row that reads worse
# or sits inside the parent's own noise (tools/bench_pairs.py).
bench-pairs:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	python tools/bench_pairs.py --out-dir "$$d"

# The paper-figure and ablation benches (performance is bench/'s job:
# `python -m bench`, see bench/README.md).
bench-all:
	pytest benchmarks/ --benchmark-only

# Paper figures and ablations, run once each with timing off (~30 s):
# every benchmarks/ file but the two timing benches (test_scalability.py
# asserts on wall-clock, test_kernels.py times kernels).  They are the
# Figs. 2-14 reproductions and every ablation, and the only callers that
# justify the options kept for them (CostModel(params), SheriffConfig(alpha=),
# migration_cooldown, the MigrationTiming fields, the packing policies);
# their asserts are the orderings a forecast or planner change must keep.
figs-smoke:
	pytest -q --benchmark-disable \
		benchmarks/test_fig02_migration_stages.py benchmarks/test_fig03_05_traces.py \
		benchmarks/test_fig06_arima.py \
		benchmarks/test_fig07_narnet.py benchmarks/test_fig08_combined.py \
		benchmarks/test_ablation_selection.py benchmarks/test_ablation_prealert.py \
		benchmarks/test_fleet_monitoring.py \
		benchmarks/test_fig09_fattree_balance.py benchmarks/test_fig10_bcube_balance.py \
		benchmarks/test_fig11_12_fattree_cost_space.py \
		benchmarks/test_fig13_14_bcube_cost_space.py \
		benchmarks/test_ablation_placement.py benchmarks/test_ablation_ecmp.py \
		benchmarks/test_ablation_dependency.py benchmarks/test_ablation_horizon.py \
		benchmarks/test_ablation_migration_window.py benchmarks/test_ablation_priority.py \
		benchmarks/test_ablation_pswap.py benchmarks/test_ablation_reroute.py \
		benchmarks/test_ablation_steering.py \
		benchmarks/test_paper_scale.py benchmarks/test_centralized_strategies.py \
		benchmarks/test_approx_ratio.py

# The two earn-or-shed scans the ROADMAP reruns at every re-anchor (keep
# rule: public names nothing outside tests/ uses; options rule: defaulted
# parameters no caller outside tests/ and examples/ passes).  Report only,
# not part of `ci`.
shed-scan:
	python tools/earn_or_shed.py

report:
	python -m repro report

# Seeded chaos campaign: run it twice, assert the reports are identical
# byte-for-byte (the docs/robustness.md reproducibility contract).
# Like `adversarial` and `trace-lint`, the recipe is one shell that writes
# into its own `mktemp -d` directory (under TMPDIR when set) and removes
# it on exit, so concurrent `make ci` runs cannot touch each other's files.
chaos:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	PYTHONPATH=src python -m repro chaos --rounds 8 --size 4 --output "$$d/a.json" > /dev/null; \
	PYTHONPATH=src python -m repro chaos --rounds 8 --size 4 --output "$$d/b.json" > /dev/null; \
	cmp "$$d/a.json" "$$d/b.json"
	@echo "chaos campaign reproducible: OK"

# Worst-case fallback bound: exit code asserts guarded <= factor x
# reactive + slack on the damage metrics, run twice + cmp asserts the
# report is seeded-deterministic (docs/robust-forecasting.md).
adversarial:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	PYTHONPATH=src python -m repro adversarial --output "$$d/a.json" > /dev/null; \
	PYTHONPATH=src python -m repro adversarial --output "$$d/b.json" > /dev/null; \
	cmp "$$d/a.json" "$$d/b.json"
	@echo "adversarial bound holds and is reproducible: OK"

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

# Invariant-check the golden seeded chaos trace, and the same campaign with
# the SLO ledger on: every REQUEST resolves, commits are acked, down racks
# stay silent (docs/observability.md).
trace-lint:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	PYTHONPATH=src python -m repro chaos --rounds 8 --size 4 --seed 2015 --trace "$$d/golden.jsonl" > /dev/null; \
	PYTHONPATH=src python -m repro trace lint "$$d/golden.jsonl"; \
	PYTHONPATH=src python -m repro chaos --rounds 8 --size 4 --seed 2015 --slo --trace "$$d/slo.jsonl" > /dev/null; \
	PYTHONPATH=src python -m repro trace lint "$$d/slo.jsonl"

# Boot `repro serve` against a seeded replay, poll /healthz, scrape
# /metrics, SIGTERM, assert a clean drain (docs/service.md ops story).
serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

# `examples` (~11 s) drives the predictive manager and the model selector
# end to end outside the test suite; `figs-smoke` (~30 s) checks every
# paper figure and ablation.
ci: lint bench-smoke digest-smoke gc-smoke trace-lint serve-smoke adversarial chaos examples figs-smoke
	pytest tests/

all: lint test bench-all
