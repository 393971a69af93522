"""Exporters: Prometheus text exposition and Chrome spans."""

import json

from repro.obs.export import chrome_trace, prometheus_text, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler


class TestPrometheusText:
    def test_counter_gauge_and_summary_families(self):
        m = MetricsRegistry()
        m.counter("sheriff_rounds_total").inc(3)
        m.counter("requests_total", tenant="gold").inc(2)
        m.gauge("sheriff_workload_std").set(1.25)
        h = m.histogram("move_cost")
        h.observe(5.0)
        h.observe(7.0)
        text = prometheus_text(m)
        assert "# TYPE sheriff_rounds_total counter" in text
        assert "sheriff_rounds_total 3.0" in text
        # namespace prefix applied exactly once
        assert "# TYPE sheriff_requests_total counter" in text
        assert 'sheriff_requests_total{tenant="gold"} 2.0' in text
        assert "sheriff_sheriff" not in text
        assert "# TYPE sheriff_workload_std gauge" in text
        # a histogram is a summary of its sum and count: no quantile sample
        assert "# TYPE sheriff_move_cost summary" in text
        assert "sheriff_move_cost_count 2" in text
        assert "sheriff_move_cost_sum 12.0" in text
        assert "quantile" not in text
        assert m.as_dict()["move_cost"] == {
            "count": 2, "sum": 12.0, "mean": 6.0, "min": 5.0, "max": 7.0
        }

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_values_are_escaped(self):
        m = MetricsRegistry()
        m.counter("weird_total", path='C:\\dir', note='say "hi"\nbye').inc()
        text = prometheus_text(m)
        assert 'path="C:\\\\dir"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        # the raw (unescaped) forms never leak into the exposition
        assert '\nbye' not in text.replace("\\n", "")

    def test_help_and_type_once_per_family_under_interleaving(self):
        m = MetricsRegistry()
        # interleave labeled series of two families in registration order
        m.counter("alerts_total", tenant="gold").inc()
        m.counter("requests_sent_total", tenant="gold").inc()
        m.counter("alerts_total", tenant="bronze").inc()
        m.counter("requests_sent_total", tenant="bronze").inc()
        text = prometheus_text(m)
        for family in ("sheriff_alerts_total", "sheriff_requests_sent_total"):
            assert text.count(f"# HELP {family} ") == 1
            assert text.count(f"# TYPE {family} ") == 1
        # all samples of a family sit contiguously under its header
        lines = text.splitlines()
        starts = [i for i, l in enumerate(lines) if l.startswith("# HELP")]
        assert lines[starts[0]].split()[2] == "sheriff_alerts_total"
        assert lines[starts[0] + 2].startswith("sheriff_alerts_total{")
        assert lines[starts[0] + 3].startswith("sheriff_alerts_total{")

    def test_known_families_get_catalog_help_text(self):
        m = MetricsRegistry()
        m.counter("sheriff_slo_violation_minutes_total", tenant="gold").inc()
        m.counter("made_up_total").inc()
        text = prometheus_text(m)
        assert (
            "# HELP sheriff_slo_violation_minutes_total "
            "SLO-violation-minutes charged, by tenant class and source."
        ) in text
        # unknown families still get a HELP line (generic fallback)
        assert "# HELP sheriff_made_up_total Sheriff metric" in text


class TestChromeTrace:
    def test_nested_sections_become_nested_spans(self):
        p = Profiler(record_spans=True)
        p.begin_round(0)
        with p.section("round"):
            with p.section("priority"):
                pass
            with p.section("matching"):
                pass
        doc = chrome_trace(p)
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["round", "priority", "matching"]
        outer, inner, second = events
        assert outer["ph"] == "X"
        assert outer["args"]["depth"] == 0
        assert inner["args"]["depth"] == 1
        assert inner["args"]["round"] == 0
        # time containment: children inside the parent window
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
        assert second["ts"] >= inner["ts"] + inner["dur"] - 1e-6

    def test_span_parents_form_a_tree(self):
        p = Profiler(record_spans=True)
        with p.section("a"):
            with p.section("b"):
                with p.section("c"):
                    pass
        assert [s.parent for s in p.spans] == [None, 0, 1]

    def test_spans_off_by_default_keeps_flat_totals(self):
        p = Profiler()
        with p.section("x"):
            pass
        assert p.spans == []
        assert "x" in p.totals

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        p = Profiler(record_spans=True)
        with p.section("round"):
            pass
        path = tmp_path / "spans.json"
        with open(path, "w") as fh:
            count = write_chrome_trace(p, fh)
        assert count == 1
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "round"
