"""Metrics registry semantics: counters, gauges, histograms, scopes."""

import math

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs.export import prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, quantile


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("m")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("m").inc(-1)

    def test_nan_increment_rejected(self):
        # NaN < 0 is False: a sign test alone lets it through, and then the
        # counter and every open scope's total read NaN
        reg = MetricsRegistry()
        c = reg.counter("m")
        with reg.scope() as scope:
            c.inc(1)
            with pytest.raises(ObservabilityError, match="cannot add NaN"):
                c.inc(float("nan"))
        assert c.value == 1.0
        assert scope.total("m") == 1.0

    def test_get_or_create_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("m", rack=3) is reg.counter("m", rack=3)
        assert reg.counter("m", rack=3) is not reg.counter("m", rack=4)

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("m", a=1, b=2) is reg.counter("m", b=2, a=1)

    def test_family_total_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("m", rack=0).inc(2)
        reg.counter("m", rack=1).inc(3)
        assert reg.total("m") == 5.0


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(2)
        g.inc(-5)  # a gauge goes down through a negative increment
        assert g.value == 7.0

    def test_can_go_negative(self):
        g = MetricsRegistry().gauge("g")
        g.inc(-3)
        assert g.value == -3.0


class TestHistogram:
    def test_streaming_stats(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 5.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 9.0
        assert h.mean == 3.0
        assert h.min == 1.0
        assert h.max == 5.0

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert math.isinf(h.min)

    def test_buckets(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 1.0, 2.0, 100.0):
            h.observe(v)
        # <=1, <=10, +inf
        assert h.bucket_counts == [2, 1, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=[10.0, 1.0])
        # a repeated bound leaves a bucket no value reaches and exports two
        # samples with the same ``le``
        for buckets in ([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], [float("nan"), 1.0]):
            with pytest.raises(ObservabilityError, match="strictly ascending"):
                MetricsRegistry().histogram("h", buckets=buckets)


class TestQuantile:
    """One interpolation for histograms, the SLO ledger and trace summaries."""

    def test_interpolates_between_order_statistics(self):
        ordered = [1.0, 2.0, 4.0]
        assert [quantile(ordered, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)] == [
            1.0, 1.5, 2.0, 3.0, 4.0
        ]
        assert quantile([], 0.5) == 0.0

    def test_refuses_q_outside_the_unit_interval(self):
        for q in (-0.5, 1.5, float("nan")):
            with pytest.raises(ObservabilityError, match="outside"):
                quantile([1.0, 2.0, 3.0], q)
        with pytest.raises(ObservabilityError):
            quantile([], -0.1)  # refused even with nothing to interpolate

    def test_histogram_reads_agree(self):
        h = MetricsRegistry().histogram("h")
        for v in (3.0, 1.0, 2.0, 8.0):
            h.observe(v)
        ordered = [1.0, 2.0, 3.0, 8.0]
        assert h.quantile(0.3) == quantile(ordered, 0.3)
        assert h.quantiles() == {
            "p50": quantile(ordered, 0.5),
            "p95": quantile(ordered, 0.95),
            "p99": quantile(ordered, 0.99),
        }


class TestRegistry:
    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ObservabilityError):
            reg.gauge("m")
        with pytest.raises(ObservabilityError):
            reg.histogram("m")

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("")

    def test_as_dict_formats_labels(self):
        reg = MetricsRegistry()
        reg.counter("m", rack=3).inc()
        reg.gauge("g").set(2.0)
        snap = reg.as_dict()
        assert snap["m{rack=3}"] == 1.0
        assert snap["g"] == 2.0

    def test_instruments_enumerates(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        kinds = {type(m) for m in reg.instruments()}
        assert kinds == {Counter, Gauge}


class TestLookupHitPath:
    """A repeat lookup is one probe; it must find what the canonical key does."""

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        first = reg.counter("n", a=1, b=2)
        assert reg.counter("n", b=2, a=1) is first
        assert reg.counter("n", a=1, b=2) is first
        assert len(list(reg.instruments())) == 1

    def test_label_values_that_print_alike_are_one_instrument(self):
        reg = MetricsRegistry()
        first = reg.counter("n", rack=3)
        assert reg.counter("n", rack=np.int64(3)) is first
        assert reg.counter("n", rack="3") is first
        # and again, now that each spelling has its own cached entry
        for value in (3, np.int64(3), "3"):
            assert reg.counter("n", rack=value) is first
        assert reg.counter("n", rack=4) is not first

    def test_type_clash_raises_after_the_counter_is_cached(self):
        reg = MetricsRegistry()
        reg.counter("m", rack=1)
        reg.counter("m", rack=1)  # a cached hit
        with pytest.raises(ObservabilityError):
            reg.histogram("m", rack=1)
        with pytest.raises(ObservabilityError):
            reg.histogram("m", rack=1)  # nothing was cached by the failure
        with pytest.raises(ObservabilityError):
            reg.gauge("m")

    def test_unhashable_label_value_takes_the_canonical_key(self):
        reg = MetricsRegistry()
        first = reg.counter("n", hosts=[1, 2])
        assert reg.counter("n", hosts=[1, 2]) is first
        assert reg.counter("n", hosts="[1, 2]") is first


class TestScope:
    def test_scope_window_accumulates_from_zero(self):
        reg = MetricsRegistry()
        reg.counter("m").inc(100)  # before the window: invisible to it
        with reg.scope() as scope:
            reg.counter("m").inc(2)
            reg.counter("m").inc(3)
        assert scope.total("m") == 5.0
        assert reg.counter("m").value == 105.0

    def test_scope_total_spans_labels(self):
        reg = MetricsRegistry()
        with reg.scope() as scope:
            reg.counter("m", rack=0).inc(1)
            reg.counter("m", rack=1).inc(2)
        assert scope.total("m") == 3.0
        assert scope.value("m", rack=1) == 2.0
        assert scope.value("m", rack=9) == 0.0
        assert scope.by_label("m", "rack") == {"0": 1.0, "1": 2.0}

    def test_nested_scopes_both_see_increments(self):
        reg = MetricsRegistry()
        with reg.scope() as outer:
            reg.counter("m").inc()
            with reg.scope() as inner:
                reg.counter("m").inc()
        assert outer.total("m") == 2.0
        assert inner.total("m") == 1.0

    def test_closed_scope_stops_recording(self):
        reg = MetricsRegistry()
        with reg.scope() as scope:
            pass
        reg.counter("m").inc()
        assert scope.total("m") == 0.0

    def test_family_total_adds_its_partials_in_first_touch_order(self):
        # float addition is not associative: 1e16 + 1 + 1 + ... loses the
        # ones, 1 + 1 + ... + 1e16 keeps them.  A family's total must add
        # its label partials in the order they were first touched, however
        # other families interleave with them (``total_cost`` is digested).
        reg = MetricsRegistry()
        with reg.scope() as scope:
            reg.counter("cost", rack=7).inc(1e16)
            for rack in (3, 1, 5):
                reg.counter("other", rack=rack).inc(rack)
                reg.counter("cost", rack=rack).inc(1.0)
            reg.counter("cost", rack=7).inc(1e16)  # a later touch keeps its place
        partials = [2e16, 1.0, 1.0, 1.0]
        want = 0.0
        for p in partials:
            want += p
        assert scope.total("cost") == want != sum(sorted(partials))
        assert scope.by_label("cost", "rack") == {
            "7": 2e16, "3": 1.0, "1": 1.0, "5": 1.0
        }
        assert list(scope.by_label("cost", "rack")) == ["7", "3", "1", "5"]
        assert scope.total("missing") == 0.0


class TestFamily:
    def test_column_write_is_the_members_values(self):
        reg = MetricsRegistry()
        fam = reg.counters("c", "rack")
        reg.register([(fam, 5), (fam, 2)])
        with reg.scope() as scope:
            fam.add(fam.slots([2, 5]), np.array([3, 4]))
            fam.add(fam.slots([5]), np.array([0.5]))
        member = reg.counter("c", rack=5)
        assert isinstance(member, Counter) and member.value == 4.5
        assert type(member.value) is float
        assert reg.counter("c", rack=5) is member
        assert [m.labels for m in reg.instruments()] == [{"rack": "5"}, {"rack": "2"}]
        # the scope folds the writes in order: rack 2 was touched first
        assert scope.as_dict() == {"c{rack=2}": 3.0, "c{rack=5}": 4.5}
        assert scope.total("c") == 7.5
        member.inc(1)  # a member's inc is a one-row write
        assert fam.values[fam.slots([5])[0]] == 5.5

    def test_column_write_refuses_nan_and_negative_amounts(self):
        reg = MetricsRegistry()
        fam = reg.counters("c", "rack")
        reg.register([(fam, 0), (fam, 1)])
        with reg.scope() as scope:
            with pytest.raises(ObservabilityError, match="cannot add NaN"):
                fam.add(fam.slots([0, 1]), np.array([1.0, float("nan")]))
            with pytest.raises(ObservabilityError, match="cannot decrease"):
                fam.add(fam.slots([0, 1]), np.array([-1.0, 2.0]))
            with pytest.raises(ObservabilityError, match="cannot add NaN"):
                reg.counter("c", rack=0).inc(float("nan"))
        # a refused write writes nothing, to the values or the scope
        assert fam.values[:2].tolist() == [0.0, 0.0]
        assert scope.as_dict() == {}

    def test_registration_goes_where_it_is_asked(self):
        reg = MetricsRegistry()
        reg.counter("first").inc()
        at = len(reg)
        reg.counter("late").inc()
        fam = reg.counters("c", "rack")
        reg.register([(fam, 3), (fam, 1), (fam, 3)], at=at)
        assert [m.name for m in reg.instruments()] == ["first", "c", "c", "late"]
        assert prometheus_text(reg).index("sheriff_c") < prometheus_text(reg).index(
            "sheriff_late"
        )

    def test_family_names_and_labels_are_checked(self):
        reg = MetricsRegistry()
        reg.counter("plain", rack=1)
        with pytest.raises(ObservabilityError, match="cannot become a family"):
            reg.counters("plain", "rack")
        reg.counters("c", "rack")
        with pytest.raises(ObservabilityError):
            reg.histograms("c", "rack")
        with pytest.raises(ObservabilityError):
            reg.histogram("c", rack=1)
        with pytest.raises(ObservabilityError, match="alone"):
            reg.counter("c", rack=1, kind="x")
        with pytest.raises(ObservabilityError, match="non-negative"):
            reg.counter("c", rack=-1)

    def test_histogram_members_observe_like_histograms(self):
        reg, ref = MetricsRegistry(), MetricsRegistry()
        fam = reg.histograms("h", "rack")
        values = [(i * 7919) % 1013 / 7.0 for i in range(700)]
        # rack 4 takes 600 values in one write, then 100 one at a time;
        # rack 9 takes none, then two
        reg.register([(fam, 4), (fam, 9)])
        fam.observe(fam.slots([4, 9]), np.array([600, 0]), np.array(values[:600]))
        for v in values[600:]:
            reg.histogram("h", rack=4).observe(v)
        fam.observe(fam.slots([9]), np.array([2]), np.array([1.5, 0.5]))
        for v in values:
            ref.histogram("h", rack=4).observe(v)
        for v in (1.5, 0.5):
            ref.histogram("h", rack=9).observe(v)
        assert reg.as_dict() == ref.as_dict()
        assert prometheus_text(reg) == prometheus_text(ref)
        for rack in (4, 9):
            got, want = reg.histogram("h", rack=rack), ref.histogram("h", rack=rack)
            assert got._reservoir == want._reservoir
            assert got._rng.getstate() == want._rng.getstate()
