"""Alg. 3's first matchings, solved for every rack in one stacked call.

Two contracts, each on the compiled kernel and on the numpy path:

* :func:`jv_solve_many` over a ragged stack — problems of mixed widths in
  one matrix padded with ``inf``, some with rows that have no finite
  entry, some infeasible, some one row long — gives every problem the
  assignment (or the failure) :func:`hungarian` and
  :func:`_hungarian_numpy` give it alone, bit for bit;
* ``_first_pairs`` over a stack of rack blocks gives every rack the
  :class:`Matching` of the block-level oracle (that block's
  ``_trim_rows`` then ``_solve``), racks with more rows than hosts,
  with no feasible row and with no perfect matching included; a retry
  (``_rematch``, the same routine over one block's remaining rows) gives
  the oracle's matching of those rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MigrationError
from repro.migration import matching
from repro.migration.matching import hungarian, jv_solve_many
from repro.migration.vmmigration import (
    Matching,
    RackCostBlock,
    _first_min,
    _first_pairs,
    _rematch,
)
from repro.obs.profiling import NULL_PROFILER

from tests.migration.test_vmmigration import first_matching

KERNELS = ["loaded", "numpy"]


def _first_matchings(*stack):
    """Every rack's first :class:`Matching`, given :func:`_first_pairs`'s
    arguments (``stack[5]`` is the racks' row bounds)."""
    pairs, bounds = _first_pairs(*stack), stack[5].tolist()
    at = pairs.at.tolist()
    return [
        Matching(
            int(pairs.sizes[p]), bool(pairs.fallback[p]), float(pairs.seconds[p]),
            (pairs.rows[at[p] : at[p + 1]] - bounds[p]).tolist(),
            *(
                col[at[p] : at[p + 1]].tolist()
                for col in (pairs.hosts, pairs.racks, pairs.costs)
            ),
        )
        for p in range(len(at) - 1)
    ]


def _kernel(monkeypatch, which):
    if which == "numpy":
        monkeypatch.setattr(matching, "_JV_KERNEL", None)


def _alone(solve, c):
    """One problem's verdict: its assignment, or its failure message."""
    try:
        return solve(c).tolist()
    except MigrationError as exc:
        return str(exc)


@st.composite
def ragged_stack(draw):
    """``(matrix, starts, widths)``: problems with rows <= width, padded
    to a common width with ``inf``; integer costs, so ties are common."""
    k = draw(st.integers(1, 6))
    widths = [draw(st.integers(1, 7)) for _ in range(k)]
    rows = [draw(st.integers(0, w)) for w in widths]
    pad = draw(st.integers(0, 2))
    forbid = draw(st.sampled_from([0.0, 0.3, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    c = np.full((sum(rows), max(widths) + pad), np.inf)
    start = 0
    for n, w in zip(rows, widths):
        block = rng.integers(0, 5, size=(n, w)).astype(float)
        block[rng.random(block.shape) < forbid] = np.inf
        if n and draw(st.booleans()):
            block[rng.integers(n)] = np.inf  # a row with no finite entry
        c[start : start + n, :w] = block
        start += n
    return c, np.concatenate(([0], np.cumsum(rows))), np.asarray(widths)


@pytest.mark.parametrize("which", KERNELS)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(stack=ragged_stack())
def test_solve_many_equals_each_problem_alone(which, stack):
    c, starts, widths = stack
    with pytest.MonkeyPatch.context() as mp:
        _kernel(mp, which)
        assignment, codes, seconds = jv_solve_many(c, starts, widths)
    assert codes.shape == seconds.shape == widths.shape
    assert (seconds >= 0).all()
    for p, (lo, hi, w) in enumerate(zip(starts, starts[1:], widths)):
        problem = np.ascontiguousarray(c[lo:hi, :w])
        got = (
            assignment[lo:hi].tolist()
            if codes[p] == 0
            else matching._FAILURES[int(codes[p])]
        )
        assert got == _alone(lambda m: hungarian(m)[0], problem)
        assert got == _alone(lambda m: matching._hungarian_numpy(m, *m.shape), problem)


def test_solve_many_covers_every_outcome():
    # the stacks the property test draws reach both verdicts and one-row
    # problems; this pins a fixed stack holding each kind, kernel and numpy
    inf = np.inf
    c = np.array(
        [
            [3.0, 1.0, inf, inf],  # problem 0: one row of width 2
            [inf, 2.0, inf, inf],  # problem 1: two rows fighting for column 1
            [inf, 5.0, inf, inf],
            [1.0, 1.0, 0.0, 2.0],  # problem 2: a full 2 x 4
            [0.0, 1.0, 1.0, inf],
        ]
    )
    starts, widths = np.array([0, 1, 3, 5]), np.array([2, 3, 4])
    loaded = jv_solve_many(c, starts, widths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_JV_KERNEL", None)
        reference = jv_solve_many(c, starts, widths)
    for assignment, codes, _ in (loaded, reference):
        assert codes.tolist() == [0, 2, 0]
        assert assignment[[0, 3, 4]].tolist() == [1, 2, 0]


def _stacked_racks(rng):
    """A random stack of rack blocks, as ``stack_cost_blocks`` lays it out:
    ``(cost, true_cost, first_min, hosts, host_rack, bounds, widths)``."""
    k = int(rng.integers(1, 7))
    widths = rng.integers(0, 6, size=k)
    sizes = rng.integers(1, 7, size=k)  # rows > width happens often
    width = int(widths.max()) + int(rng.integers(0, 2))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    n = int(bounds[-1])
    cost = rng.integers(0, 6, size=(n, width)).astype(float)
    cost[rng.random(cost.shape) < rng.choice([0.0, 0.4, 0.8])] = np.inf
    hosts = np.zeros((n, width), dtype=np.int64)
    host_rack = np.arange(200) // 4
    for p in range(k):
        rows = slice(bounds[p], bounds[p + 1])
        cost[rows, widths[p] :] = np.inf  # the region's padding
        region = np.sort(rng.choice(200, size=width, replace=False))
        hosts[rows] = region
    true_cost = np.where(np.isfinite(cost), cost * 0.5 + rng.random(cost.shape), np.inf)
    return cost, true_cost, _first_min(cost), hosts, host_rack, bounds, widths


@pytest.mark.parametrize("which", KERNELS)
def test_first_matchings_equal_the_block_oracle(which, monkeypatch):
    rng = np.random.default_rng(4400)
    cases = [_stacked_racks(rng) for _ in range(300)]
    # the oracle is the numpy reference alone, one rack at a time
    monkeypatch.setattr(matching, "_JV_KERNEL", None)
    want, cut, one_row = [], False, False
    for cost, true_cost, _, hosts, host_rack, bounds, widths in cases:
        first = len(want)
        for p, w in enumerate(widths.tolist()):
            rows = slice(bounds[p], bounds[p + 1])
            cut |= int(np.isfinite(cost[rows, :w]).any(axis=1).sum()) > w
            want.append(
                first_matching(
                    cost[rows, :w],
                    true_cost[rows, :w],
                    hosts[bounds[p], :w],
                    host_rack[hosts[bounds[p], :w]],
                )
            )
        # every rack of the stack matches one row at most, one at least
        sizes = [m.size for m in want[first:]]
        one_row |= max(sizes) == 1
    monkeypatch.undo()
    _kernel(monkeypatch, which)
    got = [m for case in cases for m in _first_matchings(*case)]
    assert [m._replace(elapsed_s=0.0) for m in got] == [
        m._replace(elapsed_s=0.0) for m in want
    ]
    # the draws reached every branch: no feasible row, a cut to |hosts|
    # rows, a greedy fallback, a one-row matching, a stack of them alone
    assert cut and one_row
    assert any(m.size == 0 for m in want)
    assert any(m.fallback for m in want)
    assert any(m.size == 1 for m in want)


@pytest.mark.parametrize("which", KERNELS)
def test_a_nan_only_in_the_padding_is_not_an_entry(which, monkeypatch):
    # rack 0 (width 2) cannot see column 2, where the padding holds a NaN:
    # it neither raises nor wins rack 0's first minimum
    _kernel(monkeypatch, which)
    cost = np.array([[5.0, 3.0, np.nan], [2.0, 1.0, 4.0]])
    hosts = np.array([[7, 8, 0], [9, 10, 11]])
    host_rack = np.arange(12) // 2
    bounds, widths = np.array([0, 1, 2]), np.array([2, 3])
    got = _first_matchings(cost, cost, _first_min(cost), hosts, host_rack, bounds, widths)
    want = [
        first_matching(
            cost[p : p + 1, :w], cost[p : p + 1, :w], hosts[p, :w], host_rack[hosts[p, :w]]
        )
        for p, w in enumerate(widths)
    ]
    assert [m._replace(elapsed_s=0.0) for m in got] == [
        m._replace(elapsed_s=0.0) for m in want
    ]
    assert got[0].hosts == [8]
    cost[1, 1] = np.nan  # inside rack 1's own columns: refused, as hungarian does
    with pytest.raises(ConfigurationError):
        _first_matchings(cost, cost, _first_min(cost), hosts, host_rack, bounds, widths)


@pytest.mark.parametrize("which", KERNELS)
def test_a_retry_equals_the_block_oracle(which, monkeypatch):
    # a retry matches a subset of one block's rows as a stack of one
    # problem; the oracle trims and solves that subset alone
    rng = np.random.default_rng(4401)
    cases = []
    for _ in range(300):
        cost, true_cost, first_min, hosts, host_rack, bounds, widths = _stacked_racks(rng)
        p = int(rng.integers(widths.size))
        rows, w = slice(bounds[p], bounds[p + 1]), int(widths[p])
        block = RackCostBlock(
            list(range(bounds[p + 1] - bounds[p])),
            hosts[bounds[p], :w],
            host_rack[hosts[bounds[p], :w]],
            true_cost[rows, :w],
            cost[rows, :w],
            first_min[rows],
            None,
        )
        drawn = rng.choice(len(block.vms), int(rng.integers(2, 8)), replace=True)
        cases.append((block, sorted(set(drawn.tolist()))))
    monkeypatch.setattr(matching, "_JV_KERNEL", None)
    want = []
    for block, remaining in cases:
        m = first_matching(
            block.cost[remaining], block.true_cost[remaining], block.hosts, block.host_racks
        )
        want.append(m._replace(rows=[remaining[r] for r in m.rows], elapsed_s=0.0))
    monkeypatch.undo()
    _kernel(monkeypatch, which)
    got = [
        _rematch(block, remaining, NULL_PROFILER)._replace(elapsed_s=0.0)
        for block, remaining in cases
    ]
    assert got == want
    assert any(len(remaining) > 1 and m.size == 1 for (_, remaining), m in zip(cases, want))
    assert any(m.size == 0 for m in want)
    assert any(m.fallback for m in want)
    assert any(m.size > 1 for m in want)
