"""DCN topology substrate: Fat-Tree and BCube fabrics.

The paper evaluates Sheriff on a switch-centric topology (Fat-Tree, Al-Fares
et al., SIGCOMM'08) and a server-centric one (BCube).  This subpackage builds
both as :class:`~repro.topology.base.Topology` objects: a typed node table, a
typed link table with per-link capacity/distance, and vectorized all-pairs
shortest-path kernels used by the migration cost model.
"""

from repro.topology.base import LinkTable, NodeKind, Topology
from repro.topology.fattree import build_fattree
from repro.topology.bcube import build_bcube
from repro.topology.shortest_paths import floyd_warshall
from repro.topology.validate import validate_topology
from repro.topology.custom import from_edge_list
from repro.topology.routing import ecmp_path, equal_cost_paths, path_diversity

__all__ = [
    "NodeKind",
    "LinkTable",
    "Topology",
    "build_fattree",
    "build_bcube",
    "floyd_warshall",
    "validate_topology",
    "from_edge_list",
    "equal_cost_paths",
    "ecmp_path",
    "path_diversity",
]
