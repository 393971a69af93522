"""Minimal weighted bipartite matching — Kuhn–Munkres (Alg. 3 kernel).

Alg. 3 matches candidate VMs to destination slots by minimum total
migration cost, "such as Kuhn-Munkres algorithm (KM) with relaxation".
This is a from-scratch implementation of the O(n³) shortest-augmenting-
path formulation with dual potentials (the Jonker–Volgenant refinement of
KM); the test-suite cross-checks it against
``scipy.optimize.linear_sum_assignment`` on random instances.

Rectangular instances (rows ≤ columns) are supported directly; entries of
``np.inf`` mark forbidden pairs (e.g. a destination whose delegation would
reject the VM outright).

:func:`jv_solve_many` solves many independent problems — ranges of rows
of one matrix, each over its own leading columns — in one call; the
round's stacked Alg. 3 pass solves every alerted rack's first matching
that way.  :func:`hungarian` is its one-problem call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, MigrationError

__all__ = ["hungarian", "jv_solve_many"]


# --------------------------------------------------------------------------- #
# Optional compiled kernel.  ``_jv.c`` is the line-for-line C twin of the
# numpy inner loop below: identical IEEE-754 operation order, so identical
# assignments bit-for-bit (``tests/migration/test_matching.py`` runs every
# case on both and asserts equal assignments on random tied/forbidden
# instances).  It is compiled once per source hash with plain ``-O2`` (never
# ``-ffast-math``) and cached next to the package; anything going wrong —
# no compiler, sandboxed tmpdir, bad toolchain, a missing symbol — silently
# falls back to the numpy path, which remains the reference implementation.
# --------------------------------------------------------------------------- #
_JV_SRC = Path(__file__).with_name("_jv.c")
_JV_BUILD_DIR = Path(__file__).with_name("_jv_build")


def _load_jv_kernel():
    try:
        src = _JV_SRC.read_bytes()
        tag = hashlib.sha256(src).hexdigest()[:16]
        so_path = _JV_BUILD_DIR / f"_jv-{tag}.so"
        if not so_path.exists():
            _JV_BUILD_DIR.mkdir(exist_ok=True)
            with tempfile.NamedTemporaryFile(
                dir=_JV_BUILD_DIR, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            cmd = [
                "gcc",
                "-O2",
                "-fPIC",
                "-shared",
                "-o",
                str(tmp_path),
                str(_JV_SRC),
                "-lm",
            ]
            res = subprocess.run(
                cmd, capture_output=True, timeout=60, check=False
            )
            if res.returncode != 0:
                tmp_path.unlink(missing_ok=True)
                return None
            os.replace(tmp_path, so_path)  # atomic: safe under fork races
        lib = ctypes.CDLL(str(so_path))
        fn = lib.jv_solve_many
        fn.restype = ctypes.c_int64
        # c, ld, k, starts, widths, match_out, codes, seconds
        fn.argtypes = [
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        return fn
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


_JV_KERNEL = _load_jv_kernel()

_FAILURES = {
    1: "no feasible assignment (all columns exhausted)",
    2: "no feasible assignment: forbidden pairs block every augmenting path",
    3: "internal error: incomplete matching",
}
"""The kernel's failure codes and the numpy path's message for each."""


class _Unmatched(MigrationError):
    """No feasible perfect matching: failure ``code`` of :data:`_FAILURES`."""

    def __init__(self, code: int) -> None:
        super().__init__(_FAILURES[code])
        self.code = code


def jv_solve_many(
    c: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``len(widths)`` independent matchings held in one matrix.

    Problem ``p`` is rows ``starts[p]:starts[p + 1]`` of the matrix *c*
    over its first ``widths[p]`` columns, with no more rows than that width
    and no NaN or ``-inf`` there (the caller checks).
    Returns ``(assignment, codes, seconds)``: ``assignment[i]`` is row
    ``i``'s column within its problem, ``codes[p]`` is 0 when problem
    ``p`` was solved and otherwise its failure code (1–3, see
    :data:`_FAILURES`; the assignment of its rows is then undefined), and
    ``seconds[p]`` is that problem's own solve time.  One call of the
    compiled kernel solves every problem; one it could not allocate for,
    and every problem when no kernel loaded, runs on the numpy path.
    """
    # the kernel reads raw row-major buffers: a no-op for the usual inputs
    c = np.ascontiguousarray(c, dtype=np.float64)
    widths = np.ascontiguousarray(widths, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    k = widths.size
    assignment = np.empty(int(starts[-1]), dtype=np.int64)
    codes = np.empty(k, dtype=np.int32)
    seconds = np.zeros(k)
    if _JV_KERNEL is None or not k:
        codes.fill(-1)
        unsolved = range(k)
    elif _JV_KERNEL(
        c.ctypes.data,
        c.shape[1],
        k,
        starts.ctypes.data,
        widths.ctypes.data,
        assignment.ctypes.data,
        codes.ctypes.data,
        seconds.ctypes.data,
    ):
        unsolved = (codes == -1).nonzero()[0].tolist()
    else:
        unsolved = ()
    for p in unsolved:
        lo, hi = int(starts[p]), int(starts[p + 1])
        t0 = perf_counter()
        codes[p] = _numpy_solve(c[lo:hi, : int(widths[p])], assignment[lo:hi])
        seconds[p] += perf_counter() - t0
    return assignment, codes, seconds


def _numpy_solve(c: np.ndarray, out: np.ndarray) -> int:
    """One problem on the numpy path into *out*; the kernel's return code."""
    n, m = c.shape
    if n == 1:
        # one row is the kernel's first step alone: relaxing ``(c - 0) - 0``
        # is ``c``, and the strict-less ascending scan is the first minimum
        j = int(np.argmin(c[0]))
        if not np.isfinite(c[0, j]):
            return 2
        out[0] = j
        return 0
    try:
        out[:] = _hungarian_numpy(c, n, m)
    except _Unmatched as exc:
        return exc.code
    return 0


def hungarian(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Minimum-cost perfect matching of rows into columns.

    The one-problem call of :func:`jv_solve_many`.

    Parameters
    ----------
    cost:
        ``(n, m)`` matrix with ``n <= m``; ``inf`` marks forbidden pairs.

    Returns
    -------
    (assignment, total):
        ``assignment[i]`` is the column matched to row ``i``; *total* is
        the summed cost.

    Raises
    ------
    MigrationError
        If no feasible perfect matching of the rows exists (every
        completion uses a forbidden pair).
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ConfigurationError(f"cost must be 2-D, got shape {c.shape}")
    n, m = c.shape
    if n == 0:
        return np.empty(0, dtype=np.int64), 0.0
    if n > m:
        raise ConfigurationError(
            f"rows ({n}) must not exceed columns ({m}); transpose or pad the instance"
        )
    if np.isnan(c).any() or (c == -np.inf).any():
        raise ConfigurationError("cost entries must be > -inf and not NaN")
    assignment, codes, _ = jv_solve_many(c, np.array([0, n]), np.array([m]))
    if codes[0]:
        raise _Unmatched(int(codes[0]))
    return assignment, float(c[np.arange(n), assignment].sum())


def _hungarian_numpy(c: np.ndarray, n: int, m: int) -> np.ndarray:
    """The reference solver: shortest augmenting path with potentials;
    1-based sentinel column 0.

    The inner Dijkstra step works on full-width contiguous buffers with
    boolean masks instead of `np.nonzero` + fancy gathers: every float
    operation runs in the same order on the same values as the gathered
    formulation (relaxation is `(c - u) - v`, then the per-step `-= delta`
    over still-unused columns), so assignments — including how cost ties
    break — are bit-identical, just ~1.7× faster on the fat matrices
    Alg. 3 produces at paper scale.
    """
    INF = np.inf
    u = np.zeros(n + 1)  # row potentials
    v = np.zeros(m + 1)  # column potentials
    match = np.zeros(m + 1, dtype=np.int64)  # row matched to column (0 = free)
    way = np.zeros(m + 1, dtype=np.int64)
    v1 = v[1:]
    way1 = way[1:]
    minv1 = np.empty(m)  # minv over real columns 1..m
    active = np.empty(m, dtype=bool)  # ~used over real columns
    cur = np.empty(m)
    better = np.empty(m, dtype=bool)
    masked = np.empty(m)
    tree = np.empty(m + 1, dtype=np.int64)  # visited columns, sentinel first

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv1.fill(INF)
        active.fill(True)
        tree[0] = 0
        tsize = 1
        while True:
            i0 = match[j0]
            # relax all columns at once; used ones are masked out below
            np.subtract(c[i0 - 1], u[i0], out=cur)
            np.subtract(cur, v1, out=cur)
            np.less(cur, minv1, out=better)
            better &= active
            np.copyto(minv1, cur, where=better)
            way1[better] = j0
            np.copyto(masked, INF)
            np.copyto(masked, minv1, where=active)
            jb = int(np.argmin(masked))
            delta = masked[jb]
            if not np.isfinite(delta):
                raise _Unmatched(2 if active.any() else 1)
            # update potentials along the visited tree
            visited = tree[:tsize]
            u[match[visited]] += delta
            v[visited] -= delta
            np.subtract(minv1, delta, out=minv1, where=active)
            j0 = jb + 1
            active[jb] = False
            tree[tsize] = j0
            tsize += 1
            if match[j0] == 0:
                break
        # augment along the alternating path
        while j0 != 0:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1

    assignment = np.full(n, -1, dtype=np.int64)
    for j in range(1, m + 1):
        if match[j] > 0:
            assignment[match[j] - 1] = j - 1
    if (assignment < 0).any():
        raise _Unmatched(3)
    return assignment
