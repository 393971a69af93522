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

Every leg draws from one sequential stream, but a REQUEST's draws depend
only on the stream's position and on whether its destination shim is
down, never on the receiver's verdict.  So a REQUEST's fate — the attempt
whose reply came back, or none, and the draws it takes — is a function
of its first draw's position, tabled once per buffer of draws, and
:meth:`UnreliableChannel.answered` reads the fates of a run of REQUESTs
ahead without taking any draw: the column pass of
:func:`~repro.migration.vmmigration.request_racks` sends its racks'
REQUESTs through it and :meth:`UnreliableChannel.take`, and
:meth:`UnreliableChannel.request` reads its own fate from the same table.

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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

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


_CHUNK = 4096
"""Loss draws taken from the generator at a time."""


def _fates(lost: np.ndarray, tries: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per offset of *lost* (which draws are losses) with ``2 * tries``
    draws from it, the fate of a REQUEST to a live shim whose first draw
    sits there: the attempt whose reply came back (-1 when all *tries*
    timed out) and the draws it takes — one per attempt whose request leg
    was lost, two per delivered one."""
    n = lost.size - 2 * tries + 1
    attempt = np.full(n, -1)
    draws = np.zeros(n, dtype=np.int64)
    first = np.arange(n)
    for a in range(tries):
        waiting = attempt < 0
        at = first + draws
        delivered = ~lost[at]
        draws += waiting * (1 + delivered)
        attempt[waiting & delivered & ~lost[at + 1]] = a
    return attempt, draws


class UnreliableChannel:
    """A ``request``-compatible port that loses and retries messages.

    Drop-in for the ``receivers`` argument of the shim round methods: a
    rack planning on its own calls :meth:`request`, the column pass reads
    :meth:`answered` and the wrapped registry (``inner``) and settles with
    :meth:`take`.  All committing/reset traffic still goes through the
    wrapped registry directly.
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
        # a buffer of the stream's draws: _taken were taken before its
        # first and _pos of its own since; _attempt / _draws hold the fate
        # of a REQUEST whose first draw is each of its offsets (_fates)
        self._values = np.empty(0)
        self._taken = 0
        self._pos = 0
        self._attempt: List[int] = []
        self._draws: List[int] = []
        self.retries = 0
        self.timeouts = 0
        self.rollbacks = 0

    def take_counts(self) -> Tuple[int, int, int]:
        """``(retries, timeouts, rollbacks)`` since the last take; zeroes them."""
        counts = self.retries, self.timeouts, self.rollbacks
        self.retries = self.timeouts = self.rollbacks = 0
        return counts

    # ------------------------------------------------------------------ #
    def _walk(self, dst_racks: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Each REQUEST's ``(attempt, draws)`` fate, sent in order from the
        stream's position (see :meth:`answered`); takes no draw."""
        down = self._is_rack_down
        if self.policy.loss_probability == 0.0:
            # nothing is lost and nothing drawn
            return [-1 if down(rack) else 0 for rack in dst_racks], [0] * len(dst_racks)
        reach = 2 * (self.policy.max_retries + 1)  # most draws one REQUEST takes
        if self._pos + reach * len(dst_racks) > self._values.size:
            # keep the draws not yet taken, add at least as many as asked
            more = self._rng.random(max(_CHUNK, reach * len(dst_racks)))
            self._values = np.concatenate((self._values[self._pos :], more))
            self._taken += self._pos
            self._pos = 0
            attempt, draws = _fates(
                self._values < self.policy.loss_probability, reach // 2
            )
            self._attempt, self._draws = attempt.tolist(), draws.tolist()
        table_attempt, table_draws = self._attempt, self._draws
        at = self._pos
        attempts: List[int] = []
        draws: List[int] = []
        for rack in dst_racks:
            if down(rack):
                # a down shim answers nothing: every attempt times out, no draw
                attempts.append(-1)
                draws.append(0)
                continue
            attempts.append(table_attempt[at])
            draws.append(table_draws[at])
            at += table_draws[at]
        return attempts, draws

    def answered(self, dst_racks) -> Tuple[np.ndarray, np.ndarray]:
        """The fates of REQUESTs to *dst_racks*, sent in order from the
        stream's position, without taking any draw.

        Returns, per REQUEST, the attempt whose reply came back (its
        retries), or -1 when every attempt timed out or the destination
        shim is down, and the draws it takes.  Whatever the receiver
        answers, :meth:`request` would give each of them this fate.
        """
        attempts, draws = self._walk(np.asarray(dst_racks).tolist())
        return np.asarray(attempts, dtype=np.int64), np.asarray(draws, dtype=np.int64)

    def take(self, draws: int, retries: int) -> None:
        """Settle REQUESTs sent past the channel on the :meth:`answered`
        fates: take their *draws* and count their *retries*."""
        self._pos += draws
        self.retries += retries

    def request(self, vm: int, dst_host: int, dst_rack: int) -> RequestOutcome:
        """One sender-side REQUEST over the lossy link.

        Returns the receiver's verdict, or ``REJECT`` after retry
        exhaustion (REJECT-on-timeout — the matching loop treats the
        destination as refused and retries elsewhere, it never hangs).
        """
        (attempt,), (draws,) = self._walk((dst_rack,))
        self._pos += draws
        tries = self.policy.max_retries + 1
        # a REQUEST that timed out draws once per attempt, twice per delivery
        if attempt >= 0 or draws > tries:
            # the first delivery runs Alg. 4, each later one reads its verdict
            outcome = self.inner.redeliver(vm, dst_host, dst_rack)
        if attempt >= 0:  # the reply leg survived
            self.retries += attempt
            return outcome
        self.retries += tries - 1
        self.timeouts += 1
        if self.tracer.enabled:
            self.tracer.emit(
                RequestTimedOut(
                    vm=vm, dst_host=dst_host, dst_rack=dst_rack, attempts=tries,
                )
            )
        # Every reply was lost after the receiver (possibly) reserved: the
        # sender will act on REJECT, so the receiver-side lease must not
        # survive — cancel the orphan reservation (lease expiry).
        if self.inner.holds_reservation(vm):
            self.inner.cancel(vm)
            self.rollbacks += 1
        return RequestOutcome.REJECT
