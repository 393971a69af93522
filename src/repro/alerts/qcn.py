"""QCN-style switch congestion feedback (Sec. III-A/B).

Switches detect flow congestion from their queue occupancy and signal it
(via DSCP bits or QCN feedback frames in the paper; via return values
here).  A shim also proactively watches its ToR's uplink queue and treats
a predicted overflow as an alert.

The queue model is the standard fluid one: occupancy integrates
(arrival − service) and saturates at the buffer size.  The ToR monitor
alerts on its *predicted* occupancy, so no QCN ``Fb`` value is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.forecast.arima import ARIMA
from repro.forecast.base import Forecaster

__all__ = ["SwitchQueue", "ToRUplinkMonitor"]

#: Occupancy samples a ToR monitor collects before its first fit (it
#: answers the last sample until then), and samples between refits.
MIN_HISTORY = 16
REFIT_EVERY = 40


@dataclass
class SwitchQueue:
    """Fluid queue of one switch port.

    Attributes
    ----------
    service_rate:
        Drain rate in capacity units per round (the link capacity share).
    buffer_size:
        Saturation level; occupancy is reported normalized by this.
    """

    service_rate: float
    buffer_size: float
    occupancy: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.service_rate <= 0:
            raise ConfigurationError(f"service_rate must be positive, got {self.service_rate}")
        if self.buffer_size <= 0:
            raise ConfigurationError(f"buffer_size must be positive, got {self.buffer_size}")

    def step(self, arrival: float) -> float:
        """Advance one round with *arrival* units offered; returns occupancy."""
        if arrival < 0:
            raise ConfigurationError(f"arrival must be non-negative, got {arrival}")
        self.occupancy = float(
            np.clip(self.occupancy + arrival - self.service_rate, 0.0, self.buffer_size)
        )
        return self.occupancy

    @property
    def normalized(self) -> float:
        """Occupancy as a fraction of the buffer."""
        return self.occupancy / self.buffer_size


class ToRUplinkMonitor:
    """Shim-side predictive watch on the local ToR uplink queue.

    Keeps the queue-length history and predicts the next occupancy with a
    forecaster (paper: "Using the historic information about the queue
    length, we can predict future queue length"); alerts when the
    *predicted* normalized occupancy crosses the threshold — before the
    queue actually overflows.  The forecaster is an ``ARIMA(1, 0, 1)``
    refitted on the whole history every :data:`REFIT_EVERY` samples once
    there are :data:`MIN_HISTORY`.
    """

    def __init__(self, queue: SwitchQueue, threshold: float) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
        self.queue = queue
        self.threshold = threshold
        self._history: list[float] = []
        self._model: Optional[Forecaster] = None
        self._since_fit = 0

    def record(self, arrival: float) -> None:
        """Advance the queue one round and log its occupancy."""
        self.queue.step(arrival)
        self._history.append(self.queue.normalized)
        if self._model is not None:
            self._model.append(self.queue.normalized)
            self._since_fit += 1

    def predicted_occupancy(self) -> float:
        """One-step-ahead normalized occupancy (last value until warm)."""
        n = len(self._history)
        if n < MIN_HISTORY:
            return self._history[-1] if self._history else 0.0
        if self._model is None or self._since_fit >= REFIT_EVERY:
            model = ARIMA(1, 0, 1, maxiter=40)
            model.fit(np.asarray(self._history))
            self._model = model
            self._since_fit = 0
        return float(np.clip(self._model.predict_one(), 0.0, 1.0))

    def alert_value(self) -> float:
        """Positive predicted occupancy when above threshold, else 0."""
        pred = self.predicted_occupancy()
        return pred if pred > self.threshold else 0.0
