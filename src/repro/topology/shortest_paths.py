"""All-pairs shortest paths for the migration cost model.

Section V-A of the paper transforms the path-dependent transmission cost
``g(v_i, v_p, e_ip)`` into a path-independent ``G(v_i, v_p)`` by running
Floyd–Warshall over the rack graph ``T`` (time complexity ``O(n^3)``).  We
implement Floyd–Warshall with a vectorized inner update — the classic
``numpy`` formulation where iteration ``k`` performs one broadcasted
``minimum`` over the full distance matrix, turning the two inner Python
loops into BLAS-grade array ops (HPC guide: vectorize for-loops, operate
in place).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError

__all__ = ["floyd_warshall"]


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest path distances.

    Parameters
    ----------
    weights:
        ``(n, n)`` matrix with edge weights, ``np.inf`` for non-edges and
        ``0`` on the diagonal (as produced by
        :meth:`~repro.topology.base.Topology.adjacency_matrix`).

    Returns
    -------
    ``(n, n)`` distance matrix.  Unreachable pairs stay ``inf``.
    """
    d = _check_and_copy(weights)
    n = d.shape[0]
    for k in range(n):
        # d[i, j] = min(d[i, j], d[i, k] + d[k, j]) for all i, j at once.
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def _check_and_copy(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise TopologyError(f"weight matrix must be square, got shape {w.shape}")
    if (np.diagonal(w) != 0).any():
        raise TopologyError("weight matrix diagonal must be zero")
    finite = w[np.isfinite(w)]
    if (finite < 0).any():
        raise TopologyError("negative edge weights are not supported")
    return w.copy()
