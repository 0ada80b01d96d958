"""Unit tests for repro.obs.export: Prometheus exposition and trace files.

The Prometheus checks pin down the exposition-format contract of the one
snapshot renderer (name mangling, catalog HELP and its escaping,
cumulative ``le`` buckets); the Chrome-trace
checks validate the structural properties Perfetto needs (complete
events with ``ph``/``ts``/``dur``, children nested inside parents on the
same lane).
"""

import json
import math

import pytest

from repro.obs.export import (
    CONTENT_TYPE_PROMETHEUS,
    _escape_help,
    chrome_trace_json,
    prometheus_name,
    render_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.instrument import METRIC_CATALOG
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    clear_spans,
    disable_tracing,
    enable_tracing,
    finished_spans,
    span,
    trace_scope,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def traced():
    enable_tracing()
    clear_spans()
    yield
    disable_tracing()
    clear_spans()


class TestPrometheusNames:
    def test_dots_become_underscores(self):
        assert (
            prometheus_name("repro.kamel.segments_failed_total")
            == "repro_kamel_segments_failed_total"
        )

    def test_invalid_chars_and_leading_digit(self):
        assert prometheus_name("a-b c/d") == "a_b_c_d"
        assert prometheus_name("2fast") == "_2fast"

    def test_colons_survive(self):
        assert prometheus_name("job:rate") == "job:rate"


class TestRenderPrometheus:
    """The one renderer: a snapshot dict in, exposition text out, HELP
    from the catalog only."""

    def test_empty_registry_renders_empty(self, registry):
        assert render_prometheus(registry.snapshot()) == ""
        assert render_prometheus({}) == ""

    def test_counter_and_gauge_families(self, registry):
        registry.counter("repro.kamel.trajectories_total").inc(7)
        registry.gauge("repro.serve.queue_depth").set(5)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_kamel_trajectories_total Trajectories imputed." in text
        assert "# TYPE repro_kamel_trajectories_total counter" in text
        assert "repro_kamel_trajectories_total 7" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 5" in text
        assert text.endswith("\n")

    def test_help_escaping(self):
        assert _escape_help("line one\nback\\slash") == "line one\\nback\\\\slash"

    def test_help_only_from_the_catalog(self, registry):
        registry.counter("repro.not_in_catalog_total").inc()
        registry.counter("repro.kamel.model_calls_total").inc()
        text = render_prometheus(registry.snapshot())
        help_lines = [line for line in text.splitlines() if line.startswith("# HELP")]
        assert help_lines == [
            "# HELP repro_kamel_model_calls_total "
            + _escape_help(METRIC_CATALOG["repro.kamel.model_calls_total"])
        ]

    def test_histogram_buckets_are_cumulative_and_monotone(self, registry):
        histogram = registry.histogram(
            "repro.kamel.impute_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_kamel_impute_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts), "le buckets must be cumulative"
        assert counts[-1] == 5, "+Inf bucket must equal the observation count"
        assert 'le="+Inf"' in text
        assert "repro_kamel_impute_seconds_count 5" in text
        assert "repro_kamel_impute_seconds_sum" in text

    def test_histogram_quantiles_render_as_separate_gauge_family(self, registry):
        histogram = registry.histogram("repro.serve.latency_seconds")
        for value in range(1, 101):
            histogram.observe(value / 100.0)
        snapshot = registry.snapshot()
        text = render_prometheus(snapshot)
        assert "# TYPE repro_serve_latency_seconds_quantile gauge" in text
        quantiles = snapshot["repro.serve.latency_seconds"]["quantiles"]
        for label, key in (("0.5", "p50"), ("0.99", "p99")):
            line = f'repro_serve_latency_seconds_quantile{{quantile="{label}"}}'
            assert f"{line} {quantiles[key]!r}" in text

    def test_empty_histogram_has_no_quantile_lines(self, registry):
        registry.histogram("repro.bert.fit_seconds")
        text = render_prometheus(registry.snapshot())
        assert "_quantile" not in text
        assert "repro_bert_fit_seconds_count 0" in text

    def test_every_line_is_valid_exposition(self, registry):
        """Each non-comment line: <name>[{labels}] <float>."""
        registry.counter("repro.kamel.trajectories_total").inc(2)
        registry.histogram("repro.kamel.impute_seconds").observe(0.5)
        registry.gauge("repro.serve.queue_depth").set(-1.5)
        for line in render_prometheus(registry.snapshot()).splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            float(value_part.replace("+Inf", "inf"))  # parses as a number
            bare = name_part.split("{", 1)[0]
            assert prometheus_name(bare) == bare

    def test_content_type_constant(self):
        assert CONTENT_TYPE_PROMETHEUS.startswith("text/plain; version=0.0.4")


def _nested_run():
    with span("streaming.process", points=9):
        with span("impute.trajectory"):
            with span("impute.segment", strategy="beam"):
                pass
        with span("impute.trajectory"):
            pass


class TestChromeTrace:
    def test_document_shape(self, traced):
        with trace_scope("feedbeefcafe0123"):
            _nested_run()
        doc = spans_to_chrome_trace(finished_spans())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == 4
        for event in events:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_children_nest_inside_parents(self, traced):
        _nested_run()
        events = [
            e for e in spans_to_chrome_trace(finished_spans())["traceEvents"]
            if e.get("ph") == "X"
        ]
        by_name = {e["name"]: e for e in events}
        root = by_name["streaming.process"]
        for event in events:
            if event is root:
                continue
            assert event["tid"] == root["tid"]
            assert event["ts"] >= root["ts"]
            assert event["ts"] + event["dur"] <= root["ts"] + root["dur"] + 1e-6

    def test_trace_id_and_attributes_in_args(self, traced):
        with trace_scope("0123456789abcdef"):
            _nested_run()
        events = [
            e for e in spans_to_chrome_trace(finished_spans())["traceEvents"]
            if e.get("ph") == "X"
        ]
        assert all(e["args"]["trace_id"] == "0123456789abcdef" for e in events)
        beam = [e for e in events if e["name"] == "impute.segment"]
        assert beam[0]["args"]["strategy"] == "beam"

    def test_json_round_trip_and_file(self, traced, tmp_path):
        _nested_run()
        parsed = json.loads(chrome_trace_json(finished_spans()))
        assert isinstance(parsed["traceEvents"], list)
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace_json(finished_spans()))
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"

    def test_empty_input(self):
        doc = spans_to_chrome_trace([])
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]

    def test_error_spans_carry_the_exception_type(self, traced):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        events = spans_to_chrome_trace(finished_spans())["traceEvents"]
        assert events[-1]["args"]["error"] == "ValueError"


class TestJsonl:
    def test_one_tree_per_line(self, traced):
        with trace_scope("aaaabbbbccccdddd"):
            _nested_run()
            _nested_run()
        text = spans_to_jsonl(finished_spans())
        lines = text.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            tree = json.loads(line)
            assert tree["name"] == "streaming.process"
            assert tree["trace_id"] == "aaaabbbbccccdddd"
            assert len(tree["children"]) == 2

    def test_empty(self):
        assert spans_to_jsonl([]) == ""
