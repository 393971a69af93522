"""Alert threshold and forecast horizon.

The paper's running example flags a server whose CPU or memory utilization
"reaches up to 90 %", so the default THRESHOLD is 0.9 on the normalized
profile scale.  The simulator advances in rounds, each one collection
period ``T`` of "delegated controller collects alerts from all VMs in its
dominating range every T seconds".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["AlertConfig"]


@dataclass(frozen=True)
class AlertConfig:
    """Tunables of the pre-alert mechanism.

    Attributes
    ----------
    threshold:
        THRESHOLD on normalized profile components (paper: 0.9).
    horizon:
        Forecast look-ahead in collection periods (the T-seconds-ahead
        prediction; 1 = one-step-ahead).
    """

    threshold: float = 0.9
    horizon: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
