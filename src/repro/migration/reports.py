"""What the shims did in one management round: one columnar record.

A round plans every alerted rack (Alg. 1, then Alg. 3's REQUEST loop),
and each rack leaves one row: alerts processed, flows rerouted and not,
the migration set with its predicted SLO damage, and the REQUEST
outcome.  :class:`RoundReports` keeps those rows as columns.  The engine
creates one per round.  A rack planning on its own appends its row as
it plans and :func:`~repro.migration.vmmigration.request_migrations`
fills in the row's migration part; the racks planned as columns
(:func:`~repro.migration.vmmigration.request_racks`) append their rows
in one :meth:`RoundReports.add_rows`.  When the round's planning ends
the rows are frozen, in rack order, into read-only numpy arrays, which
the garbage collector does not track, so a long run's ``sim.history``
holds a few objects per round, not a few per alerted rack.  The record is
the one copy of what each rack did: the planning counters and histograms
hold only its round totals, which :meth:`RoundReports.write_metrics` adds
to the registry in the round's one metrics write.

:class:`RoundReport` and :class:`MigrationStats` are the per-rack views:
``reports[i]`` builds them on read, equal field by field to what a shim
planning on its own returns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["MigrationStats", "RoundReport", "RoundReports"]


@dataclass
class MigrationStats:
    """Bookkeeping of one VMMIGRATION invocation."""

    requested: int = 0
    acked: int = 0
    rejected: int = 0
    total_cost: float = 0.0
    search_space: int = 0
    """Candidate (VM, destination-host) pairs examined — Fig. 12/14 metric."""
    iterations: int = 0
    unplaced: List[int] = field(default_factory=list)
    moves: List[Tuple[int, int, float]] = field(default_factory=list)
    """Accepted (vm, dst_host, cost) triples."""


@dataclass
class RoundReport:
    """What one shim did in one management round."""

    rack: int
    migration: MigrationStats = field(default_factory=MigrationStats)
    selected_for_migration: List[int] = field(default_factory=list)
    rerouted_flows: int = 0
    reroute_failures: int = 0
    alerts_processed: int = 0
    predicted_slo_damage: float = 0.0
    """Summed predicted SLO damage (violation-minutes) of the migration
    set under ``scoring="slo"``; 0 under pure network scoring."""


# a row while the round plans, in this order; the first five are the
# shim's (Alg. 1), the rest its REQUEST outcome (Alg. 3)
_ROW = (
    "rack",
    "alerts_processed",
    "rerouted_flows",
    "reroute_failures",
    "predicted_slo_damage",
    "requested",
    "acked",
    "rejected",
    "total_cost",
    "search_space",
    "iterations",
)
_MIGRATION = _ROW.index("requested")
_FLOAT = ("predicted_slo_damage", "total_cost")
# ragged columns: (pointer name, value names) — CSR, row i's values are
# values[ptr[i]:ptr[i + 1]]
_RAGGED = (
    ("selected_ptr", ("selected",)),
    ("unplaced_ptr", ("unplaced",)),
    ("moves_ptr", ("move_vm", "move_host", "move_cost")),
    ("matching_ptr", ("matching_size",)),
)
# the planning counters, each with the column whose round total it adds
_COUNTERS = (
    ("sheriff_shim_alerts_total", "alerts_processed"),
    ("sheriff_flows_rerouted_total", "rerouted_flows"),
    ("sheriff_reroute_failures_total", "reroute_failures"),
    ("sheriff_requests_sent_total", "requested"),
    ("sheriff_requests_acked_total", "acked"),
    ("sheriff_requests_rejected_total", "rejected"),
    ("sheriff_migration_cost_total", "total_cost"),
    ("sheriff_search_space_total", "search_space"),
    ("sheriff_unplaced_total", "unplaced"),
)
# the two histograms and the ragged column each observes
_HISTOGRAMS = (
    ("sheriff_matching_size", "matching_size"),
    ("sheriff_move_cost", "move_cost"),
)


def _column(name: str, doc: str) -> property:
    return property(lambda self: self._frozen()[name], doc=doc)


class RoundReports(Sequence[RoundReport]):
    """One round's per-rack record, a row per planned rack, as columns.

    While the round plans, :meth:`add_rows` appends rows given as
    columns, :meth:`add_row` appends a rack's row (its migration part
    empty) and :meth:`set_migration` fills in the last row's migration
    part.  :meth:`freeze` — called when the round's
    planning ends, and by any read — turns the rows into read-only numpy
    arrays, in rack order once :meth:`add_rows` was used; a frozen record
    takes no more rows.

    Columns, one value per row: ``rack``, ``alerts_processed``,
    ``rerouted_flows``, ``reroute_failures``, ``predicted_slo_damage``,
    ``requested``, ``acked``, ``rejected``, ``total_cost``,
    ``search_space``, ``iterations``.  Ragged columns are CSR — row ``i``
    owns ``values[ptr[i]:ptr[i + 1]]``: ``selected`` (``selected_ptr``),
    ``unplaced`` (``unplaced_ptr``), the accepted moves ``move_vm`` /
    ``move_host`` / ``move_cost`` (``moves_ptr``) and the rows entering
    each matching solve, ``matching_size`` (``matching_ptr``).

    As a ``Sequence[RoundReport]``, ``len``, indexing (negative too) and
    iteration build :class:`RoundReport` views with Python ``int`` /
    ``float`` values and ``moves`` as ``(vm, host, cost)`` tuples.
    """

    def __init__(self) -> None:
        self._rows: Optional[List[list]] = []
        self._ragged: Optional[Dict[str, list]] = {}
        for ptr, values in _RAGGED:
            self._ragged[ptr] = [0]
            self._ragged.update((name, []) for name in values)
        self._cols: Optional[Dict[str, np.ndarray]] = None
        self._merge = False  # rows given as columns: freeze sorts by rack

    # ------------------------------------------------------------------ #
    def add_row(
        self,
        rack: int,
        alerts_processed: int = 0,
        rerouted_flows: int = 0,
        reroute_failures: int = 0,
        predicted_slo_damage: float = 0.0,
        selected: Sequence[int] = (),
    ) -> None:
        """Append a rack's row, its migration part empty."""
        if self._rows is None:
            raise SimulationError("a frozen RoundReports takes no more rows")
        self._rows.append(
            [
                rack,
                alerts_processed,
                rerouted_flows,
                reroute_failures,
                predicted_slo_damage,
                0, 0, 0, 0.0, 0, 0,
            ]
        )
        ragged = self._ragged
        ragged["selected"].extend(selected)
        ragged["selected_ptr"].append(len(ragged["selected"]))
        ragged["unplaced_ptr"].append(len(ragged["unplaced"]))
        ragged["moves_ptr"].append(len(ragged["move_vm"]))
        ragged["matching_ptr"].append(len(ragged["matching_size"]))

    def set_migration(
        self,
        requested: int = 0,
        acked: int = 0,
        rejected: int = 0,
        total_cost: float = 0.0,
        search_space: int = 0,
        iterations: int = 0,
        unplaced: Sequence[int] = (),
        move_vm: Sequence[int] = (),
        move_host: Sequence[int] = (),
        move_cost: Sequence[float] = (),
        matching_size: Sequence[int] = (),
    ) -> None:
        """The last row's REQUEST outcome (set once per row)."""
        if not self._rows:
            raise SimulationError("set_migration needs an open row")
        self._rows[-1][_MIGRATION:] = (
            requested, acked, rejected, total_cost, search_space, iterations
        )
        ragged = self._ragged
        ragged["unplaced"].extend(unplaced)
        ragged["unplaced_ptr"][-1] = len(ragged["unplaced"])
        ragged["move_vm"].extend(move_vm)
        ragged["move_host"].extend(move_host)
        ragged["move_cost"].extend(move_cost)
        ragged["moves_ptr"][-1] = len(ragged["move_vm"])
        ragged["matching_size"].extend(matching_size)
        ragged["matching_ptr"][-1] = len(ragged["matching_size"])

    def add_rows(self, **columns) -> None:
        """Append a block of rows given as columns.

        Each name of the class docstring's columns, ragged ones as values
        and pointers (from 0); a column not given is 0 in every row, a
        ragged one empty.  The record reads as if each row had been
        appended on its own, in rack order: :meth:`freeze` sorts the rows
        by rack (stably), so rows appended after the block, of racks
        between its own, take their places among them.
        """
        if self._rows is None:
            raise SimulationError("a frozen RoundReports takes no more rows")
        self._merge = True
        zero = [0] * len(columns["rack"])
        self._rows.extend(
            zip(*(np.asarray(columns[c]).tolist() if c in columns else zero for c in _ROW))
        )
        ragged = self._ragged
        for ptr, values in _RAGGED:
            end = ragged[ptr][-1]
            if ptr not in columns:
                ragged[ptr].extend(end for _ in zero)
                continue
            ragged[ptr].extend((np.asarray(columns[ptr][1:]) + end).tolist())
            for name in values:
                ragged[name].extend(np.asarray(columns[name]).tolist())

    def freeze(self) -> None:
        """Turn the rows into read-only arrays (idempotent)."""
        rows = self._rows
        if rows is None:
            return
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(_ROW))
        cols: Dict[str, np.ndarray] = {}
        for j, name in enumerate(_ROW):
            # every int a row holds is far below 2**53: exact in float64
            col = table[:, j]
            cols[name] = col.copy() if name in _FLOAT else col.astype(np.int64)
        for ptr, values in _RAGGED:
            cols[ptr] = np.asarray(self._ragged[ptr], dtype=np.int64)
            for name in values:
                dtype = np.float64 if name == "move_cost" else np.int64
                cols[name] = np.asarray(self._ragged[name], dtype=dtype)
        order = cols["rack"].argsort(kind="stable") if self._merge else None
        if order is not None and (order[1:] < order[:-1]).any():
            # rows given as columns interleave by rack with those after them
            for name in _ROW:
                cols[name] = cols[name][order]
            for ptr, values in _RAGGED:
                counts = np.diff(cols[ptr])[order]
                at = np.concatenate(([0], counts.cumsum()))
                take = np.repeat(cols[ptr][order] - at[:-1], counts) + np.arange(at[-1])
                cols[ptr] = at
                for name in values:
                    cols[name] = cols[name][take]
        for arr in cols.values():
            arr.flags.writeable = False
        self._cols = cols
        self._rows = self._ragged = None

    def _frozen(self) -> Dict[str, np.ndarray]:
        self.freeze()
        return self._cols

    rack = _column("rack", "Rack of each row.")
    alerts_processed = _column("alerts_processed", "Alerts the shim processed.")
    rerouted_flows = _column("rerouted_flows", "Flows moved off hot switches.")
    reroute_failures = _column("reroute_failures", "Flows with no other path.")
    predicted_slo_damage = _column(
        "predicted_slo_damage", "Predicted SLO damage of the migration set."
    )
    requested = _column("requested", "REQUESTs sent.")
    acked = _column("acked", "REQUESTs ACKed.")
    rejected = _column("rejected", "REQUESTs REJECTed.")
    total_cost = _column("total_cost", "Summed Eq. (1) cost of the ACKed moves.")
    search_space = _column("search_space", "(VM, host) pairs examined.")
    iterations = _column("iterations", "Matching iterations.")
    selected = _column("selected", "Migration sets, CSR over ``selected_ptr``.")
    selected_ptr = _column("selected_ptr", "Row pointers of ``selected``.")
    unplaced = _column("unplaced", "Unplaced VMs, CSR over ``unplaced_ptr``.")
    unplaced_ptr = _column("unplaced_ptr", "Row pointers of ``unplaced``.")
    move_vm = _column("move_vm", "ACKed moves' VMs, CSR over ``moves_ptr``.")
    move_host = _column("move_host", "ACKed moves' destination hosts.")
    move_cost = _column("move_cost", "ACKed moves' Eq. (1) costs.")
    moves_ptr = _column("moves_ptr", "Row pointers of the three move columns.")
    matching_size = _column(
        "matching_size", "Rows entering each matching solve, CSR over ``matching_ptr``."
    )
    matching_ptr = _column("matching_ptr", "Row pointers of ``matching_size``.")

    def total(self, name: str):
        """Column *name* summed over the rows: an ``int`` for a count
        column; for a float column the rows added one by one in row order,
        from ``0.0`` (``np.cumsum``), as per-row counter increments add."""
        col = self._frozen()[name]
        if name not in _FLOAT:
            return int(col.sum())
        return 0.0 + float(np.cumsum(col)[-1]) if col.size else 0.0

    def write_metrics(
        self, metrics: MetricsRegistry, added: Optional[Dict[str, float]] = None
    ) -> None:
        """Add the round's totals to *metrics*, when it has a row; given
        *added*, also put there what was added (a histogram's the sum it
        observed).

        Each ``_COUNTERS`` counter gets its column's :meth:`total` (the
        unplaced counter the number of unplaced VMs), and
        ``sheriff_matching_size`` / ``sheriff_move_cost`` observe the
        ``matching_size`` / ``move_cost`` column, in row order.  The
        instruments are unlabelled: what each rack did is this record.
        """
        cols = self._frozen()
        if not cols["rack"].size:
            return
        for name, col in _COUNTERS:
            amount = cols[col].size if col == "unplaced" else self.total(col)
            metrics.counter(name).inc(amount)
            if added is not None:
                added[name] = float(amount)
        for name, col in _HISTOGRAMS:
            metrics.histogram(name).observe_many(cols[col])
            if added is not None and cols[col].size:
                added[name] = float(np.cumsum(cols[col], dtype=np.float64)[-1])

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._cols["rack"])

    def _index(self, i) -> int:
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        return i

    def migration(self, i: int) -> MigrationStats:
        """Row *i*'s REQUEST outcome as a :class:`MigrationStats` view."""
        cols = self._frozen()
        i = self._index(i)
        u0, u1 = cols["unplaced_ptr"][i : i + 2].tolist()
        m0, m1 = cols["moves_ptr"][i : i + 2].tolist()
        return MigrationStats(
            requested=int(cols["requested"][i]),
            acked=int(cols["acked"][i]),
            rejected=int(cols["rejected"][i]),
            total_cost=float(cols["total_cost"][i]),
            search_space=int(cols["search_space"][i]),
            iterations=int(cols["iterations"][i]),
            unplaced=cols["unplaced"][u0:u1].tolist(),
            moves=list(
                zip(
                    cols["move_vm"][m0:m1].tolist(),
                    cols["move_host"][m0:m1].tolist(),
                    cols["move_cost"][m0:m1].tolist(),
                )
            ),
        )

    def __getitem__(self, i) -> RoundReport:
        cols = self._frozen()
        i = self._index(i)
        s0, s1 = cols["selected_ptr"][i : i + 2].tolist()
        return RoundReport(
            rack=int(cols["rack"][i]),
            migration=self.migration(i),
            selected_for_migration=cols["selected"][s0:s1].tolist(),
            rerouted_flows=int(cols["rerouted_flows"][i]),
            reroute_failures=int(cols["reroute_failures"][i]),
            alerts_processed=int(cols["alerts_processed"][i]),
            predicted_slo_damage=float(cols["predicted_slo_damage"][i]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (RoundReports, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RoundReports(rows={len(self)})"
