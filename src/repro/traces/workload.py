"""Per-VM workload streams.

Each VM in the simulator carries a :class:`WorkloadStream`: a lazily
generated, normalized ``(t, NUM_RESOURCES)`` series the monitor samples
every round.  Streams mix a diurnal base, AR(1) wander, and optional
*overload ramps* — scheduled future excursions above the alert threshold
that let experiments verify the pre-alert machinery actually fires *before*
the overload lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.resources import NUM_RESOURCES
from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator, spawn
from repro.traces.diurnal import diurnal_pattern
from repro.traces.noise import ar1_noise, bursty_spikes

__all__ = ["WorkloadStream", "overload_ramp", "generate_streams"]


def overload_ramp(
    n: int,
    start: int,
    ramp_len: int,
    peak: float = 0.98,
) -> np.ndarray:
    """Additive ramp reaching *peak* at ``start + ramp_len``, then holding.

    Used to inject a predictable upcoming overload: the ramp's early slope
    is visible to the forecaster several steps before the threshold is
    crossed.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if start < 0 or ramp_len < 1:
        raise ConfigurationError(
            f"ramp needs start >= 0 and ramp_len >= 1, got ({start}, {ramp_len})"
        )
    out = np.zeros(n)
    if start >= n:
        return out
    t = np.arange(n)
    rising = (t >= start) & (t < start + ramp_len)
    out[rising] = peak * (t[rising] - start + 1) / ramp_len
    out[t >= start + ramp_len] = peak
    return out


@dataclass
class WorkloadStream:
    """Pre-generated normalized workload series for one VM.

    Attributes
    ----------
    profile:
        ``(length, NUM_RESOURCES)`` array in ``[0, 1]``.
    """

    profile: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.profile, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != NUM_RESOURCES:
            raise ConfigurationError(
                f"profile must be (t, {NUM_RESOURCES}), got {p.shape}"
            )
        if ((p < 0) | (p > 1)).any():
            raise ConfigurationError("profile values must lie in [0, 1]")
        object.__setattr__(self, "profile", p)

    @property
    def length(self) -> int:
        return int(self.profile.shape[0])

    def at(self, t: int) -> np.ndarray:
        """Profile row at time *t* (clamped to the final row past the end).

        A negative *t* is refused: indexing would wrap it to the end.
        """
        if t < 0:
            raise ConfigurationError(f"round must be >= 0, got {t}")
        return self.profile[min(t, self.length - 1)]

    def history(self, t: int, window: int) -> np.ndarray:
        """Rows ``[max(0, t-window+1) .. t]`` — forecaster input."""
        lo = max(0, t - window + 1)
        return self.profile[lo : t + 1]

    # ------------------------------------------------------------------ #
    @classmethod
    def generate(
        cls,
        length: int,
        *,
        base_level: float = 0.45,
        diurnal_period: int = 96,
        diurnal_amplitude: float = 0.15,
        wander_sigma: float = 0.03,
        burst_rate: float = 0.01,
        ramps: Optional[List[Tuple[int, int, int, float]]] = None,
        seed: SeedLike = None,
    ) -> "WorkloadStream":
        """Synthesize a stream.

        Parameters
        ----------
        ramps:
            Optional list of ``(resource, start, ramp_len, peak)`` overload
            injections added to individual resource columns.
        """
        if length < 1:
            raise ConfigurationError(f"length must be >= 1, got {length}")
        gens = spawn(seed, 2 * NUM_RESOURCES)
        cols = []
        for r in range(NUM_RESOURCES):
            base = diurnal_pattern(
                length,
                diurnal_period,
                base=base_level,
                amplitude=diurnal_amplitude,
                peak_phase=0.5 + 0.05 * r,  # stagger resource peaks
                sharpness=1.4,
            )
            wander = ar1_noise(length, phi=0.85, sigma=wander_sigma, seed=gens[2 * r])
            bursts = bursty_spikes(
                length, rate=burst_rate, scale=0.12, decay=0.5, seed=gens[2 * r + 1]
            )
            cols.append(base + wander + bursts)
        prof = np.stack(cols, axis=1)
        if ramps:
            for resource, start, ramp_len, peak in ramps:
                if not (0 <= resource < NUM_RESOURCES):
                    raise ConfigurationError(f"unknown resource index {resource}")
                prof[:, resource] += overload_ramp(length, start, ramp_len, peak)
        return cls(profile=np.clip(prof, 0.0, 1.0))


def generate_streams(
    count: int,
    length: int,
    *,
    base_level: float = 0.45,
    diurnal_period: int = 96,
    diurnal_amplitude: float = 0.15,
    wander_sigma: float = 0.03,
    burst_rate: float = 0.01,
    seed: SeedLike = None,
) -> List[WorkloadStream]:
    """Vectorized batch synthesis of *count* workload streams.

    Functionally the same recipe as :meth:`WorkloadStream.generate`
    (diurnal base + AR(1) wander + bursts per resource) but generated as
    ``(count, length)`` matrices with one ``lfilter`` pass per resource —
    paper-scale fleets (thousands of VMs) build in milliseconds instead
    of seconds.  Stream *i* of a batch is reproducible from
    ``(seed, count, i)`` but differs from ``WorkloadStream.generate``'s
    single-stream derivation; pick one path per experiment.

    Ramps are not supported here — inject them per-VM afterwards by
    rebuilding the few affected streams with :meth:`WorkloadStream.generate`
    or adding :func:`overload_ramp` onto ``stream.profile`` columns.
    """
    from scipy.signal import lfilter

    from repro.traces.diurnal import diurnal_pattern

    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if length < 1:
        raise ConfigurationError(f"length must be >= 1, got {length}")
    if count == 0:
        return []
    rng = as_generator(seed)
    profiles = np.empty((count, length, NUM_RESOURCES))
    # one contiguous (count, length) plane, reused: each resource is summed
    # in place and copied once into its strided column of ``profiles``
    plane = np.empty((count, length))
    for r in range(NUM_RESOURCES):
        base = diurnal_pattern(
            length,
            diurnal_period,
            base=base_level,
            amplitude=diurnal_amplitude,
            peak_phase=0.5 + 0.05 * r,
            sharpness=1.4,
        )
        # AR(1) wander for all streams at once (lfilter along time axis)
        eps = rng.normal(0.0, wander_sigma, size=(count, length))
        np.add(base[None, :], lfilter([1.0], [1.0, -0.85], eps, axis=1), out=plane)
        # bursts: per-step starts with exponential heights, geometric decay.
        # Both draws are made even when no burst can start, so the generator
        # stays in step; a silent burst plane is all +0.0 and adds nothing
        starts = rng.random((count, length)) < burst_rate
        heights = rng.exponential(0.12, size=(count, length))
        if starts.any():
            heights[~starts] = 0.0
            plane += lfilter([1.0], [1.0, -0.5], heights, axis=1)
        profiles[:, :, r] = plane
    np.clip(profiles, 0.0, 1.0, out=profiles)
    return [WorkloadStream(profile=profiles[i]) for i in range(count)]
