"""Tests for the online imputation service."""

import io
import json
import logging
import urllib.request

import pytest

from repro import Kamel
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.errors import NotFittedError
from repro.geo import Point, Trajectory
from repro.obs.logging import ROOT_LOGGER_NAME, configure_logging
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import clear_spans, disable_tracing, enable_tracing, finished_spans


@pytest.fixture()
def service(trained_kamel):
    return StreamingImputationService(trained_kamel, StreamingConfig())


class TestConstruction:
    def test_requires_fitted_system(self):
        with pytest.raises(NotFittedError):
            StreamingImputationService(Kamel())


class TestHotPath:
    def test_process_counts(self, service, small_split):
        _, test = small_split
        sparse = test[0].sparsify(500.0)
        results = service.process(sparse)
        assert len(results) >= 1
        assert service.stats.trajectories_in == 1
        assert service.stats.trips_out == len(results)
        assert service.stats.points_in == len(sparse)
        assert service.stats.points_out >= len(sparse)
        assert service.stats.processing_seconds > 0.0

    def test_outlier_removed_before_imputation(self, service, small_split):
        _, test = small_split
        base = test[1].sparsify(500.0)
        corrupted = base.with_points(
            list(base.points[:1])
            + [Point(99_999.0, 99_999.0, t=base.points[0].t + 0.1)]
            + list(base.points[1:])
        )
        results = service.process(corrupted)
        for r in results:
            assert all(p.x < 50_000 for p in r.trajectory.points)

    def test_time_gap_splits_into_trips(self, service, small_split):
        _, test = small_split
        a = test[2].sparsify(500.0)
        shifted = [p.with_time(p.t + 10_000.0) for p in test[3].sparsify(500.0).points]
        glued = Trajectory("glued", list(a.points) + shifted)
        results = service.process(glued)
        assert len(results) == 2

    def test_stats_properties(self, service, small_split):
        _, test = small_split
        for t in test[:3]:
            service.process(t.sparsify(500.0))
        stats = service.stats
        assert 0.0 <= stats.failure_rate <= 1.0
        assert stats.points_out >= stats.points_in > 0
        assert stats.processing_seconds > 0.0

    def test_empty_stats(self, trained_kamel):
        fresh = StreamingImputationService(trained_kamel)
        assert fresh.stats.failure_rate == 0.0


class TestTelemetry:
    @pytest.fixture()
    def fresh_registry(self):
        """Isolate metrics: each test reads only what it recorded."""
        previous = set_registry(MetricsRegistry())
        yield
        set_registry(previous)

    def test_metrics_endpoint_beside_the_service(
        self, trained_kamel, small_split, fresh_registry
    ):
        """The service serves no HTTP; an endpoint run beside it exports
        what it counted."""
        _, test = small_split
        service = StreamingImputationService(trained_kamel)
        server = ObservabilityServer(port=0).start()
        try:
            service.process(test[0].sparsify(500.0))
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                body = r.read().decode()
        finally:
            server.stop()
        assert "repro_kamel_segments_failed_total" in body
        assert "repro_streaming_trajectories_in_total 1" in body
        assert "repro_streaming_process_seconds_count 1" in body

    def test_one_trace_id_spans_the_whole_request(
        self, trained_kamel, small_split, fresh_registry
    ):
        _, test = small_split
        service = StreamingImputationService(trained_kamel)
        enable_tracing()
        clear_spans()
        try:
            service.process(test[0].sparsify(500.0))
        finally:
            roots = finished_spans()
            disable_tracing()
            clear_spans()
        (root,) = roots
        assert root.name == "streaming.process"
        ids = {s.trace_id for s in root.walk()}
        assert len(ids) == 1 and None not in ids, (
            "every span of one process() call must share one trace id"
        )

    def test_warning_logs_carry_the_request_trace_id(
        self, trained_kamel, small_split, fresh_registry
    ):
        """A fallback WARNING emitted deep inside imputation is stamped
        with the same trace id the request's spans carry."""
        _, test = small_split
        stream = io.StringIO()
        configure_logging(level="WARNING", fmt="json", stream=stream, force=True)
        service = StreamingImputationService(trained_kamel)
        enable_tracing()
        clear_spans()
        try:
            # Very sparse input: some segments will exhaust the model
            # budget and log fallback warnings.
            for t in test[:6]:
                service.process(t.sparsify(1200.0))
            roots = finished_spans()
        finally:
            disable_tracing()
            clear_spans()
            root_logger = logging.getLogger(ROOT_LOGGER_NAME)
            for handler in list(root_logger.handlers):
                if getattr(handler, "_repro_structured", False):
                    root_logger.removeHandler(handler)
            root_logger.propagate = True
            root_logger.setLevel(logging.NOTSET)
        span_ids = {root.trace_id for root in roots}
        logged = [json.loads(line) for line in stream.getvalue().splitlines()]
        warnings = [o for o in logged if o["level"] == "WARNING"]
        if not warnings:
            pytest.skip("no fallback warnings fired on this seed")
        for obj in warnings:
            assert obj["trace_id"] in span_ids
