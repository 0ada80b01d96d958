"""Observability for the KAMEL pipeline: metrics, tracing, logging, export.

Eight dependency-free modules:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters, gauges, and histograms (fixed buckets + streaming quantiles),
  with snapshot/reset and JSON export;
* :mod:`repro.obs.monitor` — rolling-window quality monitors (windowed
  failure rate, latency, rejection ratio, pyramid hit rate) with
  edge-triggered threshold callbacks, one :class:`MonitorHub` per
  registry;
* :mod:`repro.obs.tracing` — nestable :func:`span` context managers that
  build per-operation span trees, free when disabled (the default), plus
  request-scoped :func:`trace_scope` ids correlating spans and logs;
* :mod:`repro.obs.logging` — the structured ``repro`` logger hierarchy
  (key=value or JSON-lines formatting, trace ids stamped on every line);
* :mod:`repro.obs.export` — Prometheus text exposition for the registry
  and Chrome-trace / JSONL exporters for span trees;
* :mod:`repro.obs.server` — a background ``/metrics`` + ``/healthz`` +
  ``/spans`` HTTP endpoint (:class:`ObservabilityServer`);
* :mod:`repro.obs.instrument` — the integration layer the pipeline
  modules import: the canonical metric-name catalog, stopwatches, and
  decorators;
* :mod:`repro.obs.flight` — tail-latency attribution for the serving
  tier: the five-stage per-request breakdown
  (:func:`stage_breakdown`) and the slowest-N :class:`FlightRecorder`
  behind the ``/slow`` route and ``kamel tail``.

Quick look at what a run did::

    from repro.obs import get_registry, render_prometheus
    system.impute_batch(sparse)
    print(get_registry().to_json())
    print(render_prometheus())     # same registry, scrape format

See ``docs/observability.md`` for the metric catalog, span hierarchy,
and the exporting/monitoring walkthrough.
"""

from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.monitor import (
    LevelWindow,
    MonitorHub,
    RollingMonitor,
    RollingWindow,
    Threshold,
)
from repro.obs.flight import (
    STAGES,
    FlightRecord,
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
    stage_breakdown,
)
from repro.obs.tracing import (
    Span,
    clear_spans,
    clock_offset,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    finished_spans,
    get_tracer,
    new_trace_id,
    span,
    trace_scope,
    tracing_enabled,
)
from repro.obs.export import (
    chrome_trace_json,
    prometheus_name,
    render_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.server import ObservabilityServer
from repro.obs.instrument import (
    METRIC_CATALOG,
    Stopwatch,
    monitors,
    stopwatch,
    timed,
)

__all__ = [
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LevelWindow",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "MonitorHub",
    "ObservabilityServer",
    "RollingMonitor",
    "RollingWindow",
    "STAGES",
    "Span",
    "Stopwatch",
    "Threshold",
    "chrome_trace_json",
    "clear_spans",
    "clock_offset",
    "configure_logging",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "finished_spans",
    "get_flight_recorder",
    "get_logger",
    "get_registry",
    "get_tracer",
    "monitors",
    "new_trace_id",
    "prometheus_name",
    "render_prometheus",
    "set_flight_recorder",
    "set_registry",
    "span",
    "stage_breakdown",
    "spans_to_chrome_trace",
    "spans_to_jsonl",
    "stopwatch",
    "timed",
    "trace_scope",
    "tracing_enabled",
    "write_chrome_trace",
    "write_spans_jsonl",
]
