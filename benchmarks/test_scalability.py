"""Scalability: planning wall-clock vs fabric size.

The paper argues the regional scheme "performs much faster than the
centralized manager" because each shim solves a tiny matching — and the
shims run *in parallel* on their own racks.  This bench measures one
management round across the pod sweep:

* ``regional_ms`` — all shims run back-to-back in this single process
  (a serialization the real system does not have);
* ``per_shim_ms`` — the mean per-shim share, i.e. the latency a
  distributed deployment would actually see: it stays roughly constant
  with fabric size, which is the scalability claim;
* ``central_ms`` — the global matching (scipy's C solver; fast here, but
  it requires shipping the whole DCN state to one node);
* ``precompute_ms`` — the one-time Floyd/Dijkstra cost-table build.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.cluster import build_cluster
from repro.costs.model import CostModel
from repro.sim import (
    centralized_migration_round,
    inject_fraction_alerts,
    regional_migration_round,
)
from repro.topology import build_fattree

PODS = [8, 16, 24, 32, 40, 48]  # Figs. 11-12's own pod range
SEED = 2015


def run_experiment():
    rows = []
    for k in PODS:
        cluster = build_cluster(
            build_fattree(k),
            hosts_per_rack=2,
            fill_fraction=0.5,
            skew=0.5,
            seed=SEED,
            delay_sensitive_fraction=0.0,
        )
        t0 = time.perf_counter()
        cm = CostModel(cluster)
        precompute_s = time.perf_counter() - t0
        _, vma = inject_fraction_alerts(cluster, 0.05, seed=SEED)
        cands = sorted(vma)

        pl = cluster.placement
        shims_active = len({int(pl.host_rack[pl.vm_host[v]]) for v in cands})
        t0 = time.perf_counter()
        regional_migration_round(cluster, cm, cands)
        regional_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        centralized_migration_round(cluster, cm, cands)
        central_s = time.perf_counter() - t0

        rows.append(
            {
                "pods": k,
                "hosts": cluster.num_hosts,
                "candidates": len(cands),
                "precompute_ms": precompute_s * 1e3,
                "regional_ms": regional_s * 1e3,
                "per_shim_ms": regional_s * 1e3 / max(shims_active, 1),
                "central_ms": central_s * 1e3,
            }
        )
    return rows


def test_scalability_planning_time(benchmark, emit):
    rows = run_once(benchmark, run_experiment)
    emit(
        format_table(
            "Scalability — one planning round, wall-clock (ms)",
            rows,
        )
    )
    # regional planning must not blow up with fabric size: even at the
    # largest sweep point one serialized round stays well under a second
    assert rows[-1]["regional_ms"] < 1000.0
    # the distributed-latency proxy stays flat: per-shim time at the
    # largest fabric is within a small factor of the smallest fabric's
    assert rows[-1]["per_shim_ms"] <= 5.0 * rows[0]["per_shim_ms"] + 1.0
