"""Simulation metrics (the y-axes of Figs. 9–14).

* Workload balance: std-dev of per-host load percentages over rounds;
* Search space: candidate (VM, destination) pairs a manager examines —
  regional Sheriff pairs each shim's candidates with its neighbor racks'
  hosts only, a centralized manager pairs every candidate with every host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.shim import ShimView
from repro.errors import ConfigurationError

__all__ = [
    "BalanceSeries",
    "search_space_regional",
    "search_space_centralized",
    "jain_fairness",
    "gini_coefficient",
    "time_above_threshold",
]


@dataclass
class BalanceSeries:
    """Workload std-dev trajectory across migration rounds."""

    values: List[float] = field(default_factory=list)

    def record(self, cluster: Cluster) -> float:
        v = cluster.workload_std()
        self.values.append(v)
        return v

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)

    @property
    def improvement(self) -> float:
        """Absolute drop from the first to the last recorded value."""
        if len(self.values) < 2:
            return 0.0
        return self.values[0] - self.values[-1]


def search_space_regional(
    cluster: Cluster, candidates_by_rack: Dict[int, Sequence[int]]
) -> int:
    """Pairs examined by regional Sheriff.

    Each shim matches its candidate VMs against hosts in its one-hop
    neighbor racks only.
    """
    total = 0
    for rack, cands in candidates_by_rack.items():
        if not (0 <= rack < cluster.num_racks):
            raise ConfigurationError(f"unknown rack {rack}")
        total += ShimView(cluster, rack).search_space(len(cands))
    return total


def search_space_centralized(cluster: Cluster, num_candidates: int) -> int:
    """Pairs examined by a centralized manager: every candidate × every host."""
    if num_candidates < 0:
        raise ConfigurationError(f"num_candidates must be >= 0, got {num_candidates}")
    return num_candidates * cluster.num_hosts


def jain_fairness(loads: np.ndarray) -> float:
    """Jain's fairness index of per-host loads: 1 = perfectly balanced.

    ``J = (Σx)² / (n · Σx²)``; ranges from ``1/n`` (one host carries
    everything) to 1 (uniform).  A scale-free companion to the paper's
    std-dev metric for Figs. 9/10-style analyses.
    """
    x = np.asarray(loads, dtype=np.float64).ravel()
    if x.size == 0:
        raise ConfigurationError("empty load vector")
    if (x < 0).any():
        raise ConfigurationError("loads must be non-negative")
    denom = x.size * float(np.dot(x, x))
    if denom == 0:
        return 1.0  # all-zero fleet is trivially fair
    return float(x.sum() ** 2 / denom)


def gini_coefficient(loads: np.ndarray) -> float:
    """Gini coefficient of per-host loads: 0 = uniform, →1 = concentrated."""
    x = np.sort(np.asarray(loads, dtype=np.float64).ravel())
    if x.size == 0:
        raise ConfigurationError("empty load vector")
    if (x < 0).any():
        raise ConfigurationError("loads must be non-negative")
    total = x.sum()
    if total == 0:
        return 0.0
    n = x.size
    # standard closed form over the sorted sample
    idx = np.arange(1, n + 1)
    return float((2.0 * np.dot(idx, x) - (n + 1) * total) / (n * total))


def time_above_threshold(
    load_series: Sequence[np.ndarray], threshold: float
) -> np.ndarray:
    """Per-host count of rounds spent above *threshold*.

    *load_series* is an iterable of per-round host-load vectors (as
    produced by :meth:`DemandDrivenWorkload.host_load`); the result is the
    per-host overload exposure the pre-alert ablation aggregates.
    """
    if not (0.0 < threshold <= 1.0):
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    mats = [np.asarray(v, dtype=np.float64).ravel() for v in load_series]
    if not mats:
        raise ConfigurationError("empty load series")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ConfigurationError("all rounds must cover the same hosts")
    stack = np.stack(mats)
    return (stack > threshold).sum(axis=0).astype(np.int64)
