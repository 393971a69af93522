"""Six-stage pre-copy live migration timeline (Sec. III-C, Fig. 2).

Stages: (1) initialization, (2) reservation, (3) iterative pre-copy,
(4) stop-and-copy, (5) commitment, (6) activation.  The paper folds the
hard-to-model stages into the constant ``C_r`` and treats the ~60 ms
downtime as zero; this module computes the *timeline* explicitly — it is
what justifies those constants, and the failure-injection tests use it to
check when migrations cannot converge (dirty rate ≥ bandwidth).

Classic pre-copy analysis (Clark et al., NSDI'05): with memory ``M``,
page-dirty rate ``d`` and transfer bandwidth ``b``, round ``i`` transfers
``M·(d/b)^i``; rounds continue until the remainder fits the downtime
budget or a round cap hits, then stop-and-copy sends the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError, MigrationError

__all__ = ["MigrationTimeline", "precopy_timeline"]


@dataclass(frozen=True)
class MigrationTimeline:
    """Durations of the four timed phases of Fig. 2 (seconds).

    ``t1`` initialization+reservation, ``t2`` iterative pre-copy,
    ``t3`` stop-and-copy (the downtime), ``t4`` commitment+activation.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    rounds: int
    transferred: float
    """Total bytes moved across all pre-copy rounds plus the final copy."""

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3 + self.t4

    @property
    def downtime(self) -> float:
        """Service interruption — only the stop-and-copy phase."""
        return self.t3


def precopy_timeline(
    memory: float,
    dirty_rate: float,
    bandwidth: float,
    *,
    setup_time: float = 0.5,
    finish_time: float = 0.2,
    downtime_target: float = 0.06,
    max_rounds: int = 30,
) -> MigrationTimeline:
    """Compute the pre-copy timeline.

    Parameters
    ----------
    memory:
        VM RAM footprint (MB).
    dirty_rate:
        Page-dirtying rate (MB/s) while the VM runs.
    bandwidth:
        Migration transfer bandwidth (MB/s).
    downtime_target:
        Stop-and-copy when the residual transfers within this budget
        (paper: ~60 ms).
    max_rounds:
        Cap on pre-copy iterations; when the dirty rate is too close to the
        bandwidth the residual stops shrinking and we must cut over anyway.

    Raises
    ------
    MigrationError
        If ``dirty_rate >= bandwidth``: the residual never shrinks, so
        pre-copy cannot converge (a migration attempted anyway would be
        rolled back by the commit path — see
        :meth:`repro.migration.request.ReceiverRegistry.commit_round_tolerant`).
    ConfigurationError
        On out-of-domain or non-finite parameters.  Non-finite inputs are
        rejected up front: a NaN dirty rate would otherwise slip past the
        convergence check (``nan >= 1.0`` is false) and poison every phase
        duration.
    """
    for name, value in (
        ("memory", memory),
        ("dirty_rate", dirty_rate),
        ("bandwidth", bandwidth),
        ("downtime_target", downtime_target),
    ):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if memory <= 0:
        raise ConfigurationError(f"memory must be positive, got {memory}")
    if dirty_rate < 0:
        raise ConfigurationError(f"dirty_rate must be non-negative, got {dirty_rate}")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    if downtime_target <= 0:
        raise ConfigurationError(
            f"downtime_target must be positive, got {downtime_target}"
        )
    if max_rounds < 1:
        raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")

    ratio = dirty_rate / bandwidth
    if ratio >= 1.0:
        raise MigrationError(
            f"dirty rate {dirty_rate} >= bandwidth {bandwidth}: "
            "pre-copy cannot converge; throttle the VM or raise bandwidth"
        )
    budget = downtime_target * bandwidth  # residual that fits the downtime
    remaining = memory
    t2 = 0.0
    transferred = 0.0
    rounds = 0
    while remaining > budget and rounds < max_rounds:
        t2 += remaining / bandwidth
        transferred += remaining
        remaining *= ratio
        rounds += 1
    t3 = remaining / bandwidth
    transferred += remaining
    return MigrationTimeline(
        t1=setup_time,
        t2=t2,
        t3=t3,
        t4=finish_time,
        rounds=rounds,
        transferred=transferred,
    )
