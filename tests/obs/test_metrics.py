"""Metrics registry semantics: counters, gauges, histograms."""

import math

import numpy as np
import pytest

from repro.errors import ObservabilityError
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
        # counter reads NaN
        reg = MetricsRegistry()
        c = reg.counter("m")
        c.inc(1)
        with pytest.raises(ObservabilityError, match="cannot add NaN"):
            c.inc(float("nan"))
        assert c.value == 1.0

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

    def test_observe_many_is_one_observe_per_value(self):
        # float addition is not associative: the sum must add the values
        # one by one, in order, as the calls would
        values = [1e16, 1.0, 1.0, 3.5, 0.25]
        reg, ref = MetricsRegistry(), MetricsRegistry()
        h, want = reg.histogram("h"), ref.histogram("h")
        h.observe(2.0)
        want.observe(2.0)
        h.observe_many(np.array(values))
        for v in values:
            want.observe(v)
        h.observe_many([])  # no values: nothing observed
        assert (h.count, h.sum, h.min, h.max) == (want.count, want.sum, want.min, want.max)
        assert type(h.count) is int and type(h.sum) is float
        assert reg.as_dict() == ref.as_dict()


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
        assert [str(m) for m in reg.instruments()] == list(snap)

    def test_instruments_enumerates(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        kinds = {type(m) for m in reg.instruments()}
        assert kinds == {Counter, Gauge}


class TestLookupHitPath:
    """A repeat lookup must find the instrument its canonical key names."""

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

