"""Trace analysis: summarize, lifecycle reconstruction, diff, and lint.

Pure functions over the event-dict lists produced by
:func:`repro.obs.tracer.load_trace` (or a
:class:`~repro.obs.tracer.RecordingTracer`'s ``as_dict()`` stream).
These back the ``repro trace`` CLI subcommands:

* :func:`summarize_trace` — per-round event counts plus alert→landed
  latency quantiles (in rounds), parsed out of the v2 correlation ids.
* :func:`vm_lifecycle` — one VM's causal chains, grouped per attempt
  ``trace_id`` in emission order: the "where did VM 7 stall?" view.
* :func:`diff_traces` — per-(round, kind) count deltas between two
  traces (chaos vs. clean runs).
* :func:`lint_trace` — the protocol invariant checker.  It doubles as a
  correctness oracle for the faults layer: a trace that passes proves
  the run never half-committed, double-resolved, or planned from a
  silenced rack.

Lint invariants (each violation carries the first offending line):

1. **Resolution** — every ``RequestSent`` resolves to exactly one
   allowed verdict sequence for its ``(vm, dst_host)``: ``Acked``,
   ``Rejected``, ``TimedOut``, or ``Acked → TimedOut`` (the lossy
   channel's lease expiry: the receiver ACKed but every reply leg was
   lost, so the sender times out and the orphan reservation is
   cancelled).  Verdicts with no open send are orphans.
2. **Commit ⊆ acked** — ``MigrationCommitted(vm, dst_host)`` requires
   the latest verdict for that pair in the same round to be an ACK.
3. **Landed ⊆ committed** — ``MigrationLanded`` requires a prior
   ``MigrationCommitted`` for the same ``(vm, dst_host)`` with no
   intervening ``MigrationAborted``.
4. **Down-rack silence** — between a ``shim_down`` fault on rack *k*
   (round *N*, detail ``until-round-X`` or ``until-shim-up``) and its
   recovery, rack *k* emits no ``PrioritySelected`` /
   ``FlowRerouted`` / ``MatchingSolved`` and sources no ``RequestSent``
   (``AlertDelivered`` is exempt: alerts are delivered, then dropped).
5. **Correlation** — in a correlated (schema-2) trace, every protocol
   event carries a ``trace_id`` and all events of one attempt agree on
   it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import quantile

__all__ = [
    "LintViolation",
    "lint_trace",
    "summarize_trace",
    "vm_lifecycle",
    "diff_traces",
]

_ATTEMPT_ID = re.compile(r"^r(\d+)\.v(\d+)$")

_VERDICT_KINDS = ("RequestAcked", "RequestRejected", "RequestTimedOut")
_PROTOCOL_KINDS = _VERDICT_KINDS + (
    "RequestSent",
    "MigrationCommitted",
    "MigrationLanded",
    "MigrationAborted",
)
_ALLOWED_SEQUENCES = (
    ("RequestAcked",),
    ("RequestRejected",),
    ("RequestTimedOut",),
    ("RequestAcked", "RequestTimedOut"),
)


@dataclass
class LintViolation:
    """One broken invariant: which rule, where, and why."""

    rule: str
    line: int
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.rule}] event #{self.line}: {self.message}"


# --------------------------------------------------------------------- #
# summarize
# --------------------------------------------------------------------- #
def summarize_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-round counts and alert→landed latency quantiles.

    Latency is measured in management rounds: for every
    ``MigrationLanded`` whose ``trace_id`` parses as ``r<N>.v<vm>``, the
    attempt took ``landed_round - N`` rounds from selection to landing
    (0 = instant commit in the selecting round).
    """
    per_round: Dict[int, Dict[str, int]] = {}
    totals: Dict[str, int] = {}
    latencies: List[float] = []
    attempts = set()
    slo_by_tenant: Dict[str, float] = {}
    slo_by_source: Dict[str, float] = {}
    # (vm, round) pairs → consecutive-round violation episodes per VM
    slo_vm_rounds: Dict[int, set] = {}
    slo_budget_exhausted: List[str] = []
    for ev in events:
        kind = ev.get("event", "?")
        rnd = ev.get("round")
        totals[kind] = totals.get(kind, 0) + 1
        if isinstance(rnd, int):
            per_round.setdefault(rnd, {})
            per_round[rnd][kind] = per_round[rnd].get(kind, 0) + 1
        if kind == "SloViolation":
            tenant = str(ev.get("tenant", "?"))
            source = str(ev.get("source", "?"))
            minutes = float(ev.get("minutes", 0.0))
            slo_by_tenant[tenant] = slo_by_tenant.get(tenant, 0.0) + minutes
            slo_by_source[source] = slo_by_source.get(source, 0.0) + minutes
            vm = ev.get("vm")
            if isinstance(vm, int) and isinstance(rnd, int):
                slo_vm_rounds.setdefault(vm, set()).add(rnd)
        elif kind == "SloBudgetExhausted":
            slo_budget_exhausted.append(str(ev.get("tenant", "?")))
        tid = ev.get("trace_id")
        if isinstance(tid, str):
            m = _ATTEMPT_ID.match(tid)
            if m:
                attempts.add(tid)
                if kind == "MigrationLanded" and isinstance(rnd, int):
                    latencies.append(float(rnd - int(m.group(1))))
    latencies.sort()
    episode_lengths = sorted(_episode_lengths(slo_vm_rounds))
    summary: Dict[str, Any] = {
        "events": len(events),
        "rounds": len(per_round),
        "attempts": len(attempts),
        "totals": dict(sorted(totals.items())),
        "per_round": {
            str(r): dict(sorted(kinds.items()))
            for r, kinds in sorted(per_round.items())
        },
        "no_landings": totals.get("MigrationLanded", 0) == 0,
        "alert_to_landed_rounds": {
            "count": len(latencies),
            "p50": quantile(latencies, 0.5),
            "p95": quantile(latencies, 0.95),
            "p99": quantile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
    }
    if slo_by_tenant or slo_budget_exhausted:
        summary["slo"] = {
            "violation_minutes": sum(slo_by_tenant.values()),
            "by_tenant": dict(sorted(slo_by_tenant.items())),
            "by_source": dict(sorted(slo_by_source.items())),
            "episodes": {
                "count": len(episode_lengths),
                "p50_rounds": quantile(episode_lengths, 0.5),
                "p99_rounds": quantile(episode_lengths, 0.99),
                "max_rounds": episode_lengths[-1] if episode_lengths else 0.0,
            },
            "budget_exhausted": sorted(set(slo_budget_exhausted)),
        }
    return summary


def _episode_lengths(vm_rounds: Dict[int, set]) -> List[float]:
    """Lengths of each VM's runs of consecutive violating rounds."""
    lengths: List[float] = []
    for rounds in vm_rounds.values():
        ordered = sorted(rounds)
        run = 1
        for prev, cur in zip(ordered, ordered[1:]):
            if cur == prev + 1:
                run += 1
            else:
                lengths.append(float(run))
                run = 1
        lengths.append(float(run))
    return lengths


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
def vm_lifecycle(events: List[Dict[str, Any]], vm: int) -> Dict[str, Any]:
    """All of one VM's causal chains, grouped per attempt.

    Falls back to the ``vm`` field when a trace is uncorrelated
    (schema 1): those events group under the pseudo-attempt ``"?"``.
    """
    suffix = f".v{vm}"
    chains: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for ev in events:
        tid = ev.get("trace_id")
        attempt: Optional[str] = None
        if isinstance(tid, str) and _ATTEMPT_ID.match(tid) and tid.endswith(suffix):
            attempt = tid
        elif ev.get("vm") == vm and ev.get("event") in _PROTOCOL_KINDS:
            attempt = tid if isinstance(tid, str) else "?"
        if attempt is None:
            continue
        if attempt not in chains:
            chains[attempt] = []
            order.append(attempt)
        chains[attempt].append(ev)
    return {
        "vm": vm,
        "attempts": [
            {
                "trace_id": attempt,
                "parent_id": next(
                    (
                        e["parent_id"]
                        for e in chains[attempt]
                        if e.get("parent_id") is not None
                    ),
                    None,
                ),
                "events": chains[attempt],
                "outcome": chains[attempt][-1].get("event"),
            }
            for attempt in order
        ],
    }


# --------------------------------------------------------------------- #
# diff
# --------------------------------------------------------------------- #
def diff_traces(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Per-(round, kind) count deltas between two traces.

    Returns only rows where the counts differ; ``delta`` is ``b - a``
    (read: *b* relative to *a*, e.g. chaos relative to clean).
    """

    def census(events: List[Dict[str, Any]]) -> Dict[Tuple[Any, str], int]:
        out: Dict[Tuple[Any, str], int] = {}
        for ev in events:
            key = (ev.get("round"), ev.get("event", "?"))
            out[key] = out.get(key, 0) + 1
        return out

    ca, cb = census(a), census(b)
    rows = []
    for key in sorted(
        set(ca) | set(cb), key=lambda k: (k[0] if k[0] is not None else -1, k[1])
    ):
        va, vb = ca.get(key, 0), cb.get(key, 0)
        if va != vb:
            rows.append(
                {"round": key[0], "event": key[1], "a": va, "b": vb, "delta": vb - va}
            )
    return {
        "a_events": len(a),
        "b_events": len(b),
        "identical": not rows,
        "rows": rows,
    }


# --------------------------------------------------------------------- #
# lint
# --------------------------------------------------------------------- #
@dataclass
class _OpenSend:
    line: int
    round: Optional[int]
    verdicts: List[str] = field(default_factory=list)
    trace_id: Optional[str] = None


def lint_trace(events: List[Dict[str, Any]]) -> List[LintViolation]:
    """Check the protocol invariants; returns violations (empty = clean).

    Event numbers in violations are 0-based indices into *events* (the
    loader already stripped the header line).
    """
    violations: List[LintViolation] = []
    open_sends: Dict[Tuple[int, int], List[_OpenSend]] = {}
    committed: Dict[Tuple[int, int], int] = {}  # (vm, dst_host) -> line
    last_verdict: Dict[Tuple[int, int], Tuple[str, Optional[int]]] = {}
    down_since: Dict[int, int] = {}  # rack -> first down round
    down_until: Dict[int, Optional[int]] = {}  # rack -> up round (None = open)
    correlated = any(isinstance(ev.get("trace_id"), str) for ev in events)

    def rack_is_down(rack: Any, rnd: Any) -> bool:
        if not isinstance(rack, int) or not isinstance(rnd, int):
            return False
        if rack not in down_since:
            return False
        up = down_until[rack]
        return rnd >= down_since[rack] and (up is None or rnd < up)

    for line, ev in enumerate(events):
        kind = ev.get("event", "?")
        rnd = ev.get("round")
        tid = ev.get("trace_id")

        # --- invariant 5: correlated traces stamp every protocol event #
        if correlated and kind in _PROTOCOL_KINDS and not isinstance(tid, str):
            violations.append(
                LintViolation(
                    "correlation",
                    line,
                    f"{kind} for vm {ev.get('vm')} has no trace_id in a "
                    f"correlated trace",
                )
            )

        if kind == "FaultInjected":
            f_kind = ev.get("fault_kind")
            target = ev.get("target")
            if f_kind == "shim_down" and isinstance(target, int):
                down_since[target] = rnd if isinstance(rnd, int) else 0
                detail = str(ev.get("detail", ""))
                m = re.match(r"until-round-(\d+)$", detail)
                down_until[target] = int(m.group(1)) if m else None
            elif f_kind == "shim_up" and isinstance(target, int):
                if target in down_since and isinstance(rnd, int):
                    down_until[target] = rnd
            continue

        # --- invariant 4: down racks stay silent -------------------- #
        if kind in ("PrioritySelected", "FlowRerouted", "MatchingSolved"):
            if rack_is_down(ev.get("rack"), rnd):
                violations.append(
                    LintViolation(
                        "down-rack",
                        line,
                        f"{kind} from rack {ev.get('rack')} in round {rnd} "
                        f"while its shim is down",
                    )
                )
        if kind == "RequestSent" and rack_is_down(ev.get("src_rack"), rnd):
            violations.append(
                LintViolation(
                    "down-rack",
                    line,
                    f"RequestSent sourced from down rack {ev.get('src_rack')} "
                    f"in round {rnd}",
                )
            )

        if kind not in _PROTOCOL_KINDS:
            continue
        vm, dst = ev.get("vm"), ev.get("dst_host")
        key = (vm, dst)

        if kind == "RequestSent":
            open_sends.setdefault(key, []).append(
                _OpenSend(line=line, round=rnd, trace_id=tid if isinstance(tid, str) else None)
            )
        elif kind in _VERDICT_KINDS:
            sends = open_sends.get(key)
            if not sends:
                violations.append(
                    LintViolation(
                        "resolution",
                        line,
                        f"{kind} for vm {vm} → host {dst} with no open "
                        f"RequestSent",
                    )
                )
            else:
                send = sends[-1]
                send.verdicts.append(kind)
                if tuple(send.verdicts) not in _ALLOWED_SEQUENCES:
                    violations.append(
                        LintViolation(
                            "resolution",
                            line,
                            f"RequestSent (event #{send.line}) for vm {vm} "
                            f"resolved as disallowed sequence {send.verdicts}",
                        )
                    )
                elif (
                    correlated
                    and isinstance(tid, str)
                    and send.trace_id is not None
                    and tid != send.trace_id
                ):
                    violations.append(
                        LintViolation(
                            "correlation",
                            line,
                            f"{kind} trace_id {tid!r} does not match its "
                            f"RequestSent's {send.trace_id!r}",
                        )
                    )
            last_verdict[key] = (kind, line)
        elif kind == "MigrationCommitted":
            verdict = last_verdict.get(key)
            if verdict is None or verdict[0] != "RequestAcked":
                got = verdict[0] if verdict else "no verdict"
                violations.append(
                    LintViolation(
                        "commit-unacked",
                        line,
                        f"MigrationCommitted for vm {vm} → host {dst} but the "
                        f"latest verdict is {got}",
                    )
                )
            committed[key] = line
        elif kind == "MigrationLanded":
            if key not in committed:
                violations.append(
                    LintViolation(
                        "landed-uncommitted",
                        line,
                        f"MigrationLanded for vm {vm} → host {dst} without a "
                        f"prior MigrationCommitted",
                    )
                )
            committed.pop(key, None)
        elif kind == "MigrationAborted":
            committed.pop(key, None)

    # sends still open at end of trace with no verdict at all
    for key, sends in sorted(
        open_sends.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        for send in sends:
            if not send.verdicts:
                violations.append(
                    LintViolation(
                        "resolution",
                        send.line,
                        f"RequestSent for vm {key[0]} → host {key[1]} "
                        f"(round {send.round}) never resolved",
                    )
                )
    violations.sort(key=lambda v: v.line)
    return violations
