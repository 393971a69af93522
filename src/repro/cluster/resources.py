"""Resource dimensions and workload profiles.

The paper's per-VM workload profile (Sec. IV-A) is

    ``W^k_ij = [CPU, MEM, IO, TRF]``

with every component normalized to ``[0, 1]``.  We fix the dimension order
here once; every array in the library whose trailing axis is "resource"
follows :data:`RESOURCE_NAMES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ResourceKind",
    "NUM_RESOURCES",
    "RESOURCE_NAMES",
    "WorkloadProfile",
]


class ResourceKind(IntEnum):
    """Index of each monitored resource in a workload profile."""

    CPU = 0
    MEM = 1
    IO = 2
    TRF = 3


NUM_RESOURCES = 4
RESOURCE_NAMES = ("cpu", "mem", "io", "trf")


@dataclass(frozen=True)
class WorkloadProfile:
    """A normalized point-in-time workload profile ``W`` of one VM.

    Immutable value object; arithmetic-heavy code paths use raw arrays of
    shape ``(num_vms, NUM_RESOURCES)`` instead and only materialize
    ``WorkloadProfile`` at API boundaries.
    """

    cpu: float
    mem: float
    io: float
    trf: float

    def __post_init__(self) -> None:
        for name in RESOURCE_NAMES:
            x = getattr(self, name)
            if not (0.0 <= x <= 1.0) or not np.isfinite(x):
                raise ConfigurationError(f"profile component {name}={x} outside [0, 1]")

    def max_component(self) -> float:
        """``max(W)`` — the paper's ALERT magnitude (Sec. IV-C)."""
        return float(max(self.cpu, self.mem, self.io, self.trf))

    def exceeds(self, threshold: float) -> bool:
        """True iff any component exceeds *threshold* (strict, per Eq. ALERT)."""
        return self.max_component() > threshold
