"""``MetricsRegistry.apply`` is sequential ``inc`` / ``observe``, bit for bit.

The engine's ``plan`` stage queues every per-rack counter increment and
histogram observation of a round and applies the queue once
(``MetricsRegistry.deferred``).  Whatever a stream of updates does when it
is applied one call at a time, ``apply`` must do too: the same counter
values and histogram distributions (bucket counts, reservoir contents and
reservoir RNG draws), and in every open scope — nested ones included —
the same per-key partials from ``0.0``, the same recording counts and the
same first-touch key and family order.  A negative counter amount stops
both at the same update.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry

common = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# (kind, name, labels): two counter families, a bucketless and a bucketed
# histogram family, each with several label sets
SPECS = (
    [("counter", "c_alerts", {"rack": r}) for r in range(3)]
    + [("counter", "c_cost", {"rack": r, "kind": "x"}) for r in range(2)]
    + [("counter", "c_rounds", {})]
    + [("histogram", "h_rows", {"rack": r}) for r in range(2)]
    + [("histogram", "h_cost", {"rack": 0}), ("histogram", "h_cost", {"rack": 7})]
)
BUCKETS = (0.5, 2.0, 10.0, 1e3)

amounts = st.one_of(
    st.just(0),
    st.just(0.0),
    st.integers(0, 10**6),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)
updates = st.lists(
    st.tuples(st.integers(0, len(SPECS) - 1), amounts), min_size=0, max_size=60
)
# a burst pushes one histogram past its 512-sample reservoir, so the
# reservoir's RNG draws are part of what is compared
bursts = st.lists(
    st.tuples(st.integers(0, len(SPECS) - 1), st.integers(1, 700)), max_size=2
)


def _instrument(reg, index):
    kind, name, labels = SPECS[index]
    if kind == "counter":
        return reg.counter(name, **labels)
    buckets = BUCKETS if name == "h_cost" else None
    return reg.histogram(name, buckets=buckets, **labels)


def _expand(stream, burst):
    out = list(stream)
    for index, n in burst:
        out += [(index, (i * 7919) % 1013 / 7.0) for i in range(n)]
    return out


def _sequential(reg, stream):
    for index, amount in stream:
        metric = _instrument(reg, index)
        if isinstance(metric, Histogram):
            metric.observe(amount)
        else:
            metric.inc(amount)


def _queued(reg, stream):
    return [(_instrument(reg, index), amount) for index, amount in stream]


def _scope_state(scope):
    names = {key[0] for key in scope._values}
    return (
        list(scope._values.items()),
        list(scope._counts.items()),
        [(name, list(keys)) for name, keys in scope._family.items()],
        scope.as_dict(),
        {name: scope.total(name) for name in names},
        {name: scope.count(name) for name in names},
        {name: scope.by_label(name, "rack") for name in names},
    )


def _state(reg, scopes):
    hists = [
        (
            m.count,
            m.sum,
            m.min,
            m.max,
            list(m.bucket_counts),
            list(m._reservoir),
            m._rng.getstate(),
        )
        for m in reg.instruments()
        if isinstance(m, Histogram)
    ]
    return (
        list(reg.as_dict().items()),
        [_scope_state(s) for s in scopes],
        hists,
    )


def _run(prefix, batch, how):
    """*prefix* applied one call at a time inside an outer scope, then
    *batch* inside an inner one, applied *how*."""
    reg = MetricsRegistry()
    outer_ctx, inner_ctx = reg.scope(), reg.scope()
    outer = outer_ctx.__enter__()
    _sequential(reg, prefix)
    inner = inner_ctx.__enter__()
    # every side creates the batch's instruments in first-use order before
    # any update, so a stream cut short by a raise leaves the same registry
    queued = _queued(reg, batch)
    error = None
    try:
        if how == "sequential":
            _sequential(reg, batch)
        elif how == "apply":
            reg.apply(queued)
        else:
            with reg.deferred():
                _sequential(reg, batch)
    except ObservabilityError as exc:
        error = str(exc)
    inner_ctx.__exit__(None, None, None)
    outer_ctx.__exit__(None, None, None)
    return _state(reg, (outer, inner)), error


@common
@given(prefix=updates, batch=updates, burst=bursts)
def test_apply_equals_sequential_updates(prefix, batch, burst):
    batch = _expand(batch, burst)
    want = _run(prefix, batch, "sequential")
    assert want[1] is None
    # repr: ``5 == 5.0`` but a JSON dump of the two differs
    assert repr(_run(prefix, batch, "apply")) == repr(want)
    assert repr(_run(prefix, batch, "deferred")) == repr(want)


@common
@given(prefix=updates, batch=updates, cut=st.integers(0, 60), negative=st.floats(-1e6, -1e-9))
def test_negative_amount_stops_after_the_same_prefix(prefix, batch, cut, negative):
    counters = [i for i, spec in enumerate(SPECS) if spec[0] == "counter"]
    cut = min(cut, len(batch))
    bad = (counters[cut % len(counters)], negative)
    stream = batch[:cut] + [bad] + batch[cut:]
    state, error = _run(prefix, stream, "apply")
    assert error is not None and "cannot decrease" in error
    # what the sequential calls leave when the negative inc raises
    assert repr((state, error)) == repr(_run(prefix, stream, "sequential"))
    # ... which is the updates before it, applied, and nothing after it
    inner_counts = state[1][1][1]
    assert sum(n for _, n in inner_counts) == cut


def test_deferred_window_queues_and_applies_on_exit():
    reg = MetricsRegistry()
    c = reg.counter("c", rack=1)
    h = reg.histogram("h")
    with reg.scope() as scope:
        with reg.deferred() as queue:
            c.inc(2)
            h.observe(3.5)
            with reg.deferred() as inner:  # a nested window joins the open one
                c.inc(1)
            assert inner is queue
            assert c.value == 0.0 and h.count == 0 and scope.as_dict() == {}
            assert [amount for _, amount in queue] == [2, 3.5, 1]
        assert c.value == 3.0 and h.count == 1
        assert scope.as_dict() == {"c{rack=1}": 3.0, "h": 3.5}
    c.inc(1)  # the window is closed: immediate again
    assert c.value == 4.0


def test_deferred_window_applies_its_queue_on_an_exception():
    reg = MetricsRegistry()
    c = reg.counter("c")
    with pytest.raises(RuntimeError):
        with reg.deferred():
            c.inc(5)
            raise RuntimeError("boom")
    assert c.value == 5.0
    assert reg._pending is None
