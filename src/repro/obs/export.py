"""Telemetry exporters: Prometheus text exposition and trace files.

Everything the pipeline records — the :class:`~repro.obs.metrics.MetricsRegistry`
and the span trees from :mod:`repro.obs.tracing` — stays process-local
until something exports it. This module provides the three formats the
rest of the observability stack (collectors, trace viewers, diffing
scripts) consumes, dependency-free:

* :func:`render_prometheus` — a metrics snapshot in the Prometheus text
  exposition format (version 0.0.4), with ``# HELP`` lines sourced from
  the instrument catalog and histograms rendered as native cumulative
  ``le`` buckets plus a separate ``_quantile`` gauge family for the
  snapshot's bucket-interpolated quantiles;
* :func:`spans_to_chrome_trace` — the Chrome trace-event JSON format
  (``ph: "X"`` complete events, microsecond timestamps), loadable
  directly in ``chrome://tracing`` or Perfetto (https://ui.perfetto.dev);
* :func:`spans_to_jsonl` — one JSON span tree per line, greppable by
  ``trace_id`` and diffable across runs.

The HTTP side (``/metrics`` for scraping) lives in
:mod:`repro.obs.server`; the CLI side (``kamel trace --export chrome``)
in :mod:`repro.cli`.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.obs.instrument import METRIC_CATALOG
from repro.obs.tracing import Span, finished_spans

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "spans_to_chrome_trace",
    "chrome_trace_json",
    "spans_to_jsonl",
    "CONTENT_TYPE_PROMETHEUS",
]


CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
"""The Content-Type a /metrics response must declare."""

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """The catalog name mapped into the Prometheus metric-name charset.

    Dots (our module separators) and anything else outside
    ``[a-zA-Z0-9_:]`` become underscores: ``repro.kamel.segments_failed_total``
    → ``repro_kamel_segments_failed_total``. A leading digit gets an underscore
    prefix.
    """
    out = _INVALID_NAME_CHARS.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(key: str, value: str) -> str:
    return f'{{{key}="{_escape_label_value(value)}"}}'


def render_prometheus(
    snapshot: Mapping[str, Mapping],
    exclude: Sequence[str] = (),
) -> str:
    """A metrics snapshot in Prometheus text exposition format.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    dict or a :func:`~repro.obs.metrics.merge_snapshots` fleet merge — one
    process's ``/metrics`` and the serving pool's render the same way.
    Names in ``exclude`` are skipped (families the caller renders itself with
    finer-grained labels). ``# HELP`` lines come from the instrument
    catalog when the name is known there. Deterministic (metrics sorted by
    name) and newline-terminated, as scrapers expect; an empty snapshot
    renders to an empty document.
    """
    lines: list[str] = []
    for raw_name in sorted(n for n in snapshot if n not in set(exclude)):
        data = snapshot[raw_name]
        kind = data.get("type")
        name = prometheus_name(raw_name)
        help_text = METRIC_CATALOG.get(raw_name)
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {_format_number(data['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            buckets = sorted(
                data.get("buckets", {}).items(),
                key=lambda kv: math.inf if kv[0] == "+Inf" else float(kv[0]),
            )
            for key, cumulative in buckets:
                le = key if key == "+Inf" else _format_number(float(key))
                lines.append(f"{name}_bucket{_label_str('le', le)} {cumulative}")
            lines.append(f"{name}_sum {_format_number(data['sum'])}")
            lines.append(f"{name}_count {data['count']}")
            # The quantiles ride along as a separate gauge family — native
            # Prometheus histograms have no quantile series, and mixing
            # summary-style lines into a histogram family is invalid
            # exposition.
            quantile_lines = []
            for key, estimate in sorted(data.get("quantiles", {}).items()):
                if estimate is None:
                    continue
                quantile = _format_number(int(key.lstrip("p")) / 100.0)
                quantile_lines.append(
                    f"{name}_quantile{_label_str('quantile', quantile)}"
                    f" {_format_number(estimate)}"
                )
            if quantile_lines:
                lines.append(f"# TYPE {name}_quantile gauge")
                lines.extend(quantile_lines)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# -- span exporters ----------------------------------------------------------


def _span_args(span_obj: Span) -> dict[str, Any]:
    args: dict[str, Any] = dict(span_obj.attributes)
    if span_obj.trace_id is not None:
        args["trace_id"] = span_obj.trace_id
    if span_obj.error is not None:
        args["error"] = span_obj.error
    return args


def spans_to_chrome_trace(roots: Optional[Iterable[Span]] = None) -> dict[str, Any]:
    """Finished span trees as a Chrome trace-event JSON document.

    Each span becomes one complete event (``ph: "X"``) with microsecond
    ``ts``/``dur``; parent/child nesting is preserved because a child's
    interval lies inside its parent's on the same ``tid`` lane (spans
    record the OS thread they ran on). Timestamps are rebased to the
    earliest root so the trace starts at zero. A serving pool's request
    trees carry one synthetic ``thread_id`` per shard, so they export one
    lane per shard.
    """
    roots = finished_spans() if roots is None else list(roots)
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "kamel"}},
    ]
    if not roots:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    origin_s = min(r.start_s for r in roots)
    tids: dict[int, int] = {}
    for root in roots:
        for span_obj in root.walk():
            tid = tids.setdefault(span_obj.thread_id, len(tids) + 1)
            end_s = span_obj.end_s if span_obj.end_s is not None else span_obj.start_s
            event: dict[str, Any] = {
                "name": span_obj.name,
                "ph": "X",
                "ts": round((span_obj.start_s - origin_s) * 1e6, 3),
                "dur": round((end_s - span_obj.start_s) * 1e6, 3),
                "pid": 1,
                "tid": tid,
            }
            args = _span_args(span_obj)
            if args:
                event["args"] = args
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(roots: Optional[Iterable[Span]] = None) -> str:
    return json.dumps(spans_to_chrome_trace(roots), indent=2, default=str)


def spans_to_jsonl(roots: Optional[Iterable[Span]] = None) -> str:
    """One JSON object per root span tree (children nested), one per line.

    The flat-file companion to the Chrome export: ``grep`` a trace id to
    pull out one request, ``jq`` to slice durations across a run.
    """
    roots = finished_spans() if roots is None else list(roots)
    return "".join(json.dumps(root.to_dict(), default=str) + "\n" for root in roots)
