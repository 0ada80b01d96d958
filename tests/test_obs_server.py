"""Integration tests for repro.obs.server: the /metrics endpoint family.

Each test binds an ephemeral localhost port (port=0) so the suite can
run in parallel without collisions.
"""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import (
    clear_spans,
    disable_tracing,
    enable_tracing,
    span,
    trace_scope,
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode()


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("repro.kamel.trajectories_total").inc(3)
    registry.gauge("repro.serve.queue_depth").set(4)
    histogram = registry.histogram("repro.kamel.impute_seconds")
    rng = random.Random(7)
    for _ in range(400):
        histogram.observe(rng.lognormvariate(-4.0, 0.8))
    return registry


@pytest.fixture()
def server(registry):
    with ObservabilityServer(port=0, registry=registry) as server:
        yield server


class TestMetricsRoute:
    def test_serves_prometheus_exposition(self, server):
        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "repro_serve_queue_depth 4" in body
        assert "repro_kamel_trajectories_total 3" in body
        assert 'repro_kamel_impute_seconds_bucket{le="+Inf"} 400' in body

    def test_body_is_the_snapshot_rendering(self, server, registry):
        _, _, body = _get(server.url + "/metrics")
        assert body == render_prometheus(registry.snapshot())

    def test_scrapes_are_counted(self, server, registry):
        from repro.obs.metrics import get_registry, set_registry

        previous = set_registry(registry)
        try:
            _get(server.url + "/metrics")
            _get(server.url + "/metrics")
        finally:
            set_registry(previous)
        assert registry.get("repro.obs.scrapes_total").value == 2

    def test_reflects_live_updates(self, server, registry):
        registry.gauge("repro.serve.queue_depth").set(9)
        _, _, body = _get(server.url + "/metrics")
        assert "repro_serve_queue_depth 9" in body


class TestHealthz:
    def test_liveness_document(self, server, registry):
        status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        doc = json.loads(body)
        assert doc == {"status": "ok", "uptime_s": doc["uptime_s"], "metrics": 3}
        assert doc["uptime_s"] >= 0


class TestSpansRoute:
    @pytest.fixture()
    def traced(self):
        enable_tracing()
        clear_spans()
        yield
        disable_tracing()
        clear_spans()

    def test_chrome_trace_by_default(self, server, traced):
        with trace_scope("cafecafecafecafe"):
            with span("impute.trajectory"):
                with span("impute.segment"):
                    pass
        status, content_type, body = _get(server.url + "/spans")
        assert status == 200
        doc = json.loads(body)
        names = [e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert names == ["impute.trajectory", "impute.segment"]

    def test_jsonl_format(self, server, traced):
        with span("root"):
            pass
        _, content_type, body = _get(server.url + "/spans?format=jsonl")
        assert content_type == "application/x-ndjson"
        assert json.loads(body.strip())["name"] == "root"


class TestLifecycle:
    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
        assert excinfo.value.read() == b"not found: try /metrics, /healthz, /spans\n"

    def test_port_zero_resolves_to_real_port(self, server):
        assert server.port != 0
        assert str(server.port) in server.url

    def test_stop_is_idempotent_and_start_restarts(self, registry):
        server = ObservabilityServer(port=0, registry=registry).start()
        server.stop()
        server.stop()
        assert not server.running
        server.start()
        try:
            assert server.running
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
        finally:
            server.stop()
