"""Resource dimensions and workload profiles.

The paper's per-VM workload profile (Sec. IV-A) is

    ``W^k_ij = [CPU, MEM, IO, TRF]``

with every component normalized to ``[0, 1]``.  We fix the dimension order
here once; every array in the library whose trailing axis is "resource"
follows :data:`RESOURCE_NAMES`.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = [
    "ResourceKind",
    "NUM_RESOURCES",
    "RESOURCE_NAMES",
]


class ResourceKind(IntEnum):
    """Index of each monitored resource in a workload profile."""

    CPU = 0
    MEM = 1
    IO = 2
    TRF = 3


NUM_RESOURCES = 4
RESOURCE_NAMES = ("cpu", "mem", "io", "trf")
