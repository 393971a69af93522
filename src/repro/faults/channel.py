"""Lossy REQUEST/ACK channel with timeout, bounded retry and idempotence.

The paper's Alg. 4 assumes a reliable control channel between shims; this
module drops that assumption.  :class:`UnreliableChannel` wraps a
:class:`~repro.migration.request.ReceiverRegistry` and models, per
REQUEST:

* **request-leg loss** — the message never reaches the receiver;
* **reply-leg loss** — the receiver answered but the ACK/REJECT is lost;
* **silent receivers** — a destination rack whose shim is down answers
  nothing (the sender cannot distinguish this from loss);
* **bounded retry** — the sender retries up to ``max_retries`` times;
  a timeout takes no wall-clock time, so runs stay fast and
  deterministic.

Retries are delivered through
:meth:`~repro.migration.request.ReceiverRegistry.redeliver`, so a
duplicate of an already-ACKed REQUEST returns the cached verdict instead
of double-reserving.  When every attempt times out *after* the receiver
ACKed (all replies lost), the sender gives up believing REJECT while the
receiver holds a reservation; the channel models the receiver's lease
expiry by cancelling that orphan reservation — the round can never end
half-committed.  The round takes the channel's counts of retries,
timeouts and cancelled leases (:meth:`UnreliableChannel.take_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import RequestTimedOut
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.rng import stream_for

__all__ = ["ChannelPolicy", "UnreliableChannel"]


@dataclass(frozen=True)
class ChannelPolicy:
    """Loss/retry behavior of the REQUEST/ACK control channel."""

    loss_probability: float = 0.0
    max_retries: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_probability < 1.0):
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


class UnreliableChannel:
    """A ``request``-compatible port that loses and retries messages.

    Drop-in for the ``receivers`` argument of the shim round methods —
    they only ever call ``.request``.  All committing/reset traffic still
    goes through the wrapped registry directly.
    """

    def __init__(
        self,
        inner: ReceiverRegistry,
        policy: ChannelPolicy,
        *,
        is_rack_down: Optional[Callable[[int], bool]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self._is_rack_down = is_rack_down if is_rack_down is not None else (
            lambda rack: False
        )
        self.tracer = tracer
        self._rng = stream_for(policy.seed, "channel")
        self.retries = 0
        self.timeouts = 0
        self.rollbacks = 0

    def take_counts(self) -> Tuple[int, int, int]:
        """``(retries, timeouts, rollbacks)`` since the last take; zeroes them."""
        counts = self.retries, self.timeouts, self.rollbacks
        self.retries = self.timeouts = self.rollbacks = 0
        return counts

    # ------------------------------------------------------------------ #
    def _lost(self) -> bool:
        p = self.policy.loss_probability
        return p > 0.0 and self._rng.random() < p

    def request(self, vm: int, dst_host: int, dst_rack: int) -> RequestOutcome:
        """One sender-side REQUEST over the lossy link.

        Returns the receiver's verdict, or ``REJECT`` after retry
        exhaustion (REJECT-on-timeout — the matching loop treats the
        destination as refused and retries elsewhere, it never hangs).
        """
        pol = self.policy
        attempts = 0
        for attempt in range(pol.max_retries + 1):
            attempts = attempt + 1
            receiver_up = not self._is_rack_down(dst_rack)
            if receiver_up and not self._lost():
                outcome = self.inner.redeliver(vm, dst_host, dst_rack)
                if not self._lost():  # reply leg survived
                    self.retries += attempt
                    return outcome
        self.retries += attempts - 1
        self.timeouts += 1
        if self.tracer.enabled:
            self.tracer.emit(
                RequestTimedOut(
                    vm=vm, dst_host=dst_host, dst_rack=dst_rack,
                    attempts=attempts,
                )
            )
        # Every reply was lost after the receiver (possibly) reserved: the
        # sender will act on REJECT, so the receiver-side lease must not
        # survive — cancel the orphan reservation (lease expiry).
        if self.inner.holds_reservation(vm):
            self.inner.cancel(vm)
            self.rollbacks += 1
        return RequestOutcome.REJECT
