"""Fleet-wide telemetry aggregation for the serving pool.

One worker, one registry — that is the process-local design of
``repro.obs``. The pool stitches the fleet back together here:
:func:`render_pool_metrics` merges the parent's ``repro.serve.*`` metrics
with every worker's latest snapshot into a single Prometheus exposition,
keeping ``repro.serve.worker.trajectories_total`` out of the merged
(unlabeled) families and re-emitting it as per-worker ``{worker="N"}``
samples instead — so one scrape shows both the fleet totals and the
per-shard load split.

:func:`pool_routes` hangs that exposition plus the pool's aggregated
health document on ``/metrics`` and ``/healthz`` of an
:class:`~repro.obs.server.ObservabilityServer` — plus ``/slow``, the
pool's :class:`~repro.obs.flight.FlightRecorder` payload: per-stage
p50/p99 attribution with exemplar trace ids and the slowest-N requests'
full span trees (see ``kamel tail``).
"""

from __future__ import annotations

from repro.obs.export import (
    CONTENT_TYPE_PROMETHEUS,
    prometheus_name,
    render_prometheus,
)
from repro.obs.instrument import METRIC_CATALOG
from repro.obs.server import Route, json_body

__all__ = ["pool_routes", "render_pool_metrics"]

_PER_WORKER_COUNTER = "repro.serve.worker.trajectories_total"


def render_pool_metrics(pool) -> str:
    """The pool's merged /metrics body (Prometheus text exposition).

    ``pool`` is a :class:`~repro.serve.pool.ServingPool`; duck-typed so
    tests can pass a stub with ``merged_snapshot`` and
    ``worker_processed``.
    """
    merged = pool.merged_snapshot()
    body = render_prometheus(merged, exclude=(_PER_WORKER_COUNTER,))
    lines = [body.rstrip("\n")] if body else []
    per_worker = getattr(pool, "worker_processed", {})
    if per_worker:
        name = prometheus_name(_PER_WORKER_COUNTER)
        lines.append(f"# HELP {name} {METRIC_CATALOG[_PER_WORKER_COUNTER]}")
        lines.append(f"# TYPE {name} counter")
        for shard in sorted(per_worker):
            lines.append(f'{name}{{worker="{shard}"}} {per_worker[shard]}')
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def pool_routes(pool) -> dict[str, Route]:
    """The fleet route table over ``pool`` (a
    :class:`~repro.serve.pool.ServingPool`, or a stub with the attributes
    the requested route reads)."""
    return {
        "/metrics": lambda query: (render_pool_metrics(pool), CONTENT_TYPE_PROMETHEUS),
        "/healthz": lambda query: json_body(pool.healthz()),
        "/slow": lambda query: json_body(pool.slow()),
    }
