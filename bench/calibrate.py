"""A fixed kernel that reads how fast the box is running right now.

The box this benchmark is measured on changes speed by a fifth to a half,
for seconds to minutes at a time, with ``process_time`` equal to wall
throughout: a neighbour on the shared cache, not preemption.  Eight
same-seed runs of ``plan_alerts_k8`` read 24.5-40.7 rounds/s; ten runs of
the ``BENCHMARK.json`` command spread by up to 31 % of their median, and
half an hour later their median was 30-49 % worse -- beyond the widest
bound that file may hold, so wall-clock times alone cannot be gated there
(bench/README.md, "Noise", lists the runs).  The slowdown is common to
whatever runs, so the harness runs this kernel in every untimed gap between
rounds and reports each time of the run twice: as measured, and *at
reference speed* -- measured seconds divided by the run's ``slowdown``
(median slice over ``REFERENCE_S``) -- which is what is gated and compared.
With it the same ten runs spread by 1-11 % and their second median was at
most 5 % worse.  A reading taken before and after the run, or concurrently
from another process, did not do that: the speed changes faster than a run
lasts.

The kernel is small-array numpy calls plus a gather that misses the first
cache levels, the mix a shim's round is made of; interpreter-only loops
tracked the slowdown worst.  It allocates nothing: with temporaries its
reading depended on the heap the workload left behind (10 % higher on
``managed_surge_k8``), without them its median is within 3 % on all
workloads, so the divisor describes the box and not the program.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

REFERENCE_S = 490e-6
"""The slice on the seed-commit box at its fastest: the speed every
reported time is scaled to.  A constant, so that the numbers of different
commits share one unit; on another box it is merely a different unit."""

_RNG = np.random.default_rng(0)
_SMALL, _SMALL_OUT = _RNG.standard_normal(2048), np.empty(2048)
_WIDE, _WIDE_OUT = _RNG.standard_normal(32768), np.empty(32768)
_ORDER = _RNG.permutation(32768)


def _slice_s() -> float:
    t0 = perf_counter()
    for _ in range(60):
        np.multiply(_SMALL, 1.0001, out=_SMALL_OUT)
        np.cumsum(_SMALL_OUT[:1024], out=_SMALL_OUT[:1024])
    for _ in range(4):
        np.take(_WIDE, _ORDER, out=_WIDE_OUT)
    return perf_counter() - t0


def read() -> List[float]:
    """One gap's reading: two slice times, taken after a warm-up slice.

    The round before leaves the caches holding the program's data; the
    first slice would time that, not the box.
    """
    _slice_s()
    return [_slice_s(), _slice_s()]
