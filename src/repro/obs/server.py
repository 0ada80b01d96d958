"""A background HTTP endpoint exposing live telemetry.

:class:`ObservabilityServer` serves a table of read-only routes
(``path -> query -> (body, content type)``) off a daemon thread, stdlib
``http.server`` only. The default table, :func:`registry_routes`, is one
process's registry:

* ``GET /metrics``  — the registry's snapshot in Prometheus text
  exposition format (scrape it with ``curl`` or point a Prometheus job
  at it);
* ``GET /healthz``  — JSON liveness: status ``ok``, uptime, and the
  number of metrics registered;
* ``GET /spans``    — collected span trees as Chrome trace-event JSON
  (save the response and load it in Perfetto), or ``?format=jsonl`` for
  the line-oriented form.

The serving pool passes its own table
(:func:`repro.serve.aggregate.pool_routes`: fleet-merged ``/metrics``,
aggregated ``/healthz``, and ``/slow`` over the pool's flight recorder,
what ``kamel tail`` renders) to the same server.

The server binds ``127.0.0.1`` by default (telemetry is not
authenticated; bind a public interface only behind something that is)
and ``port=0`` picks a free ephemeral port, so tests and demos never
collide. Handler logging goes through the ``repro``
logger at DEBUG, never stderr.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError
from repro.obs import instrument as obs
from repro.obs.export import (
    CONTENT_TYPE_PROMETHEUS,
    chrome_trace_json,
    render_prometheus,
    spans_to_jsonl,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import finished_spans

__all__ = ["ObservabilityServer", "Route", "json_body", "registry_routes"]

_log = get_logger("obs.server")

Route = Callable[[dict[str, list[str]]], tuple[str, str]]
"""One GET route: parsed query string -> ``(body, content type)``."""

_JSON = "application/json; charset=utf-8"


def json_body(payload) -> tuple[str, str]:
    """A route's return value for a JSON document."""
    return json.dumps(payload, default=float), _JSON


def registry_routes(
    registry: MetricsRegistry, started_monotonic: float
) -> dict[str, Route]:
    """The single-process route table over ``registry``."""

    def metrics(query) -> tuple[str, str]:
        obs.count("repro.obs.scrapes_total")
        return render_prometheus(registry.snapshot()), CONTENT_TYPE_PROMETHEUS

    def healthz(query) -> tuple[str, str]:
        return json_body(
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - started_monotonic, 3),
                "metrics": len(registry),
            }
        )

    def spans(query) -> tuple[str, str]:
        roots = finished_spans()
        if (query.get("format") or ["chrome"])[0] == "jsonl":
            return spans_to_jsonl(roots), "application/x-ndjson"
        return chrome_trace_json(roots), _JSON

    return {
        "/metrics": metrics,
        "/healthz": healthz,
        "/spans": spans,
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes one request through the owning server's route table."""

    server: "_ObsHTTPServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib signature
        _log.debug(
            "http request",
            extra={"data": {"client": self.address_string(), "line": format % args}},
        )

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch name
        parsed = urlparse(self.path)
        routes = self.server.routes
        route = routes.get(parsed.path.rstrip("/") or "/")
        if route is None:
            self._respond(
                404, f"not found: try {', '.join(routes)}\n", "text/plain"
            )
            return
        self._respond(200, *route(parse_qs(parsed.query)))


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    routes: dict[str, Route]


class ObservabilityServer:
    """The scrape endpoint a long-running service (or demo) hangs out.

    Usage::

        server = ObservabilityServer(port=0).start()
        print(server.url)           # e.g. http://127.0.0.1:49537
        ...
        server.stop()

    Also a context manager. ``registry=None`` serves the process-default
    registry, re-read on every request — so a registry swapped in later
    is *not* picked up; pass the registry explicitly to pin one.
    ``routes`` replaces the default :func:`registry_routes` table (which
    is built at each ``start``; ``registry`` is then unused). Reads are
    approximate by design: a handler thread renders whatever the process
    has at that instant, the contract of any Prometheus scrape.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
        routes: Optional[dict[str, Route]] = None,
    ) -> None:
        self._requested_port = port
        self.host = host
        self._registry = registry
        self.routes = routes
        self._httpd: Optional[_ObsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ObservabilityServer":
        if self._httpd is not None:
            return self
        try:
            httpd = _ObsHTTPServer((self.host, self._requested_port), _Handler)
        except OSError as exc:
            raise ConfigError(
                f"cannot serve telemetry on {self.host}:{self._requested_port}: "
                f"{exc.strerror or exc}"
            ) from exc
        httpd.routes = self.routes
        if httpd.routes is None:
            # Explicit None check: an empty registry is falsy (it has __len__).
            registry = get_registry() if self._registry is None else self._registry
            httpd.routes = registry_routes(registry, time.monotonic())
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name=f"obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        _log.info(
            "observability endpoint up",
            extra={"data": {"url": self.url}},
        )
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"ObservabilityServer({self.url}, {state})"
