"""Custom fabric construction.

Sheriff "can be easily implemented in other DCN topologies" (Sec. II-A).
:func:`from_edge_list` lets users bring their own fabric as an explicit
edge list and get a validated :class:`~repro.topology.base.Topology` the
rest of the library consumes.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from repro.errors import TopologyError
from repro.topology.base import NodeKind, Topology
from repro.topology.validate import validate_topology

__all__ = ["from_edge_list"]

EdgeSpec = Tuple[int, int, float, float]  # (u, v, capacity, distance)


def from_edge_list(
    kinds: Sequence[Union[NodeKind, str]],
    edges: Iterable[EdgeSpec],
    *,
    name: str = "custom",
    validate: bool = True,
) -> Topology:
    """Build a topology from node kinds and ``(u, v, capacity, distance)`` rows.

    ``kinds`` accepts :class:`NodeKind` values or their names
    (case-insensitive); ToR nodes must come first, as everywhere else.
    """
    parsed = []
    for k in kinds:
        if isinstance(k, NodeKind):
            parsed.append(k)
        else:
            try:
                parsed.append(NodeKind[str(k).upper()])
            except KeyError:
                raise TopologyError(
                    f"unknown node kind {k!r}; expected one of "
                    f"{[n.name for n in NodeKind]}"
                ) from None
    topo = Topology(name, parsed)
    for row in edges:
        if len(row) != 4:
            raise TopologyError(
                f"edge rows must be (u, v, capacity, distance), got {row!r}"
            )
        u, v, cap, dist = row
        topo.add_link(int(u), int(v), float(cap), float(dist))
    if validate:
        validate_topology(topo)
    return topo
