"""Unit tests for repro.obs.metrics: counters, histograms, registry."""

import json
import math
import random

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset_zeroes_in_place(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_inc(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        assert g.value == 12


class TestHistogramBuckets:
    def test_bucket_edges_are_cumulative_upper_bounds(self):
        h = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        counts = h.to_dict()["buckets"]
        # le semantics: a value equal to an edge lands in that bucket.
        assert counts["1.0"] == 2
        assert counts["5.0"] == 3
        assert counts["10.0"] == 4
        assert counts["+Inf"] == 5

    def test_infinity_bucket_is_appended_when_missing(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.buckets[-1] == math.inf

    def test_count_sum_mean_min_max(self):
        h = Histogram("h", buckets=COUNT_BUCKETS)
        for v in (1, 2, 3):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6
        assert h.mean == 2
        assert h.min == 1
        assert h.max == 3

    def test_empty_histogram_has_no_extrema(self):
        h = Histogram("h")
        assert h.min is None and h.max is None
        assert h.quantile(0.5) is None

    def test_default_latency_buckets_span_100us_to_60s(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(0.0001)
        assert 60.0 in LATENCY_BUCKETS


class TestHistogramQuantiles:
    def test_streaming_quantiles_track_uniform_distribution(self):
        rng = random.Random(7)
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        values = [rng.uniform(0.0, 10.0) for _ in range(5000)]
        for v in values:
            h.observe(v)
        values.sort()
        for p in (0.5, 0.9, 0.99):
            true = values[int(p * (len(values) - 1))]
            assert h.quantile(p) == pytest.approx(true, abs=0.25)

    def test_snapshot_quantiles_equal_the_merged_snapshot(self):
        """One number per question: a registry's own snapshot and the
        fleet merge of it report the same quantiles, to the last bit."""
        rng = random.Random(7)
        reg = MetricsRegistry()
        latency = reg.histogram("latency", buckets=LATENCY_BUCKETS)
        calls = reg.histogram("calls", buckets=COUNT_BUCKETS)
        for _ in range(400):
            value = rng.lognormvariate(-4.0, 0.8)
            latency.observe(value)
            calls.observe(round(value * 2000))
        snapshot = reg.snapshot()
        merged = merge_snapshots([reg.snapshot()])
        for name in ("latency", "calls"):
            assert set(snapshot[name]["quantiles"]) == {"p50", "p90", "p99"}
            assert snapshot[name]["quantiles"] == merged[name]["quantiles"]
            h = reg.get(name)
            assert snapshot[name]["quantiles"]["p99"] == h.quantile(0.99)

    def test_quantile_is_the_bucket_interpolation(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 2.5, 3.5):
            h.observe(v)
        # Rank 3 of 4 is the first of the two observations in (2, 4]; that
        # bucket is clamped at the max (3.5), so: half way from 2.0 to 3.5.
        assert h.quantile(0.75) == 2.75

    def test_reset_clears_distribution(self):
        h = Histogram("h")
        h.observe(1.0)
        h.reset()
        assert h.count == 0
        assert h.quantile(0.5) is None
        h.observe(2.0)
        assert h.count == 1


class TestRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(reg.to_json())
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"]["+Inf"] == 1

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("repro.kamel.x").inc()
        reg.counter("repro.bert.y").inc()
        assert list(reg.snapshot(prefix="repro.kamel.")) == ["repro.kamel.x"]

    def test_reset_keeps_handles_valid(self):
        reg = MetricsRegistry()
        handle = reg.counter("c")
        handle.inc(9)
        reg.reset()
        assert handle.value == 0
        handle.inc()
        assert reg.counter("c").value == 1

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "metrics.json"
        reg.write_json(path)
        assert json.loads(path.read_text())["c"]["value"] == 1

    def test_default_registry_swap_and_restore(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
