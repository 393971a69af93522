"""Shared fixtures: small clusters on both topology families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import build_cluster
from repro.costs import CostModel
from repro.topology import build_bcube, build_fattree

# Loaded before the test modules build their ``settings(...)`` objects (which
# inherit what they do not name): no fresh draws, no replay from an untracked
# ``.hypothesis/`` directory — the tier-1 gate is the same run on every box.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fattree4():
    """Tiny 4-pod Fat-Tree (8 racks, 20 nodes)."""
    return build_fattree(4)


@pytest.fixture
def fattree8():
    return build_fattree(8)


@pytest.fixture
def bcube4():
    """BCube(4, 1): 4 racks, 16 servers."""
    return build_bcube(4)


@pytest.fixture
def small_cluster(fattree4):
    """Deterministic populated cluster with some skew."""
    return build_cluster(
        fattree4,
        hosts_per_rack=3,
        host_capacity=100,
        fill_fraction=0.5,
        skew=0.5,
        seed=42,
    )


@pytest.fixture
def cost_model(small_cluster):
    return CostModel(small_cluster)
