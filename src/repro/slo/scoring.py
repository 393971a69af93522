"""SLO-aware migration scoring (``SheriffConfig(scoring="slo")``).

Eq. (1) prices a migration purely by where its bytes travel.  The scorer
adds the *application's* side of the bargain: moving a VM blacks it out
for the stop-and-copy window of its pre-copy timeline, and the damage is
that blackout weighted by the VM's request rate.  Destinations that are
already busy amplify the risk (the VM lands somewhere that may violate
its SLO next round), so the addend couples per-VM damage with per-host
load:

    addend[r, h] = damage[r] * (0.5 + load_frac[h])

Rows with zero request rate contribute nothing — for them the matrix
degenerates to pure Eq. (1) cost and the assignment is unchanged.

The scorer deliberately imports nothing from :mod:`repro.sim` — the
timing object is duck-typed (only ``rounds_for(capacity)`` is called), so
the import-cycle checker stays clean.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.slo.model import SloModel

__all__ = ["SloScorer"]


class SloScorer:
    """Predicted-SLO-damage addend for migration cost matrices."""

    def __init__(self, model: SloModel, timing) -> None:
        self.model = model
        self.timing = timing
        self._downtime_by_capacity: Dict[int, float] = {}

    def _downtime_for(self, capacity: int) -> float:
        dt = self._downtime_by_capacity.get(capacity)
        if dt is None:
            _, tl = self.timing.rounds_for(capacity)
            dt = float(tl.downtime)
            self._downtime_by_capacity[capacity] = dt
        return dt

    def damage(self, vms: Sequence[int], capacities: Sequence[int]) -> np.ndarray:
        """Per-VM predicted SLO damage in violation-minutes.

        ``damage[i]`` = stop-and-copy seconds for a VM of that capacity ×
        the VM's request rate ÷ 60 — exactly what the accountant would
        charge if the move lands.
        """
        rate = self.model.request_rate[np.asarray(vms, dtype=np.int64)]
        out = np.zeros(len(vms), dtype=np.float64)
        for i in np.flatnonzero(rate > 0.0).tolist():
            out[i] = self._downtime_for(int(capacities[i])) * rate[i] / 60.0
        return out

    def addend(self, damage: np.ndarray, load_frac: np.ndarray) -> np.ndarray:
        """The ``(rows, hosts)`` matrix added on top of Eq. (1) + steering.

        *load_frac* is one load per host, or ``(rows, hosts)`` when every
        row has its own hosts (the round's stacked pass).
        """
        return damage[:, None] * (0.5 + np.atleast_2d(load_frac))
