"""Tail-latency attribution: per-request stages and a slow-request recorder.

A p99 you cannot decompose is a number, not a diagnosis. This module
turns one served request's telemetry — the envelope timestamps the
serving pool stamps at submit, the worker's processing clock, and the
span tree the worker ships back — into a fixed **stage breakdown**:

* ``queue_wait``     — submit to the worker dequeuing the task;
* ``model_load``     — parsing models out of the store on LRU misses
  (the ``serve.model_load`` spans);
* ``inference``      — the imputation work proper (processing time not
  attributed to model loading or detokenization);
* ``detokenize``     — mapping imputed tokens back to coordinates (the
  ``detokenize`` spans);
* ``result_transit`` — processing done to the pool accepting the result
  (serialization, the result pipe, and the pool's pump backlog).

The five stages partition the submit-to-result interval: ``queue_wait``
and ``result_transit`` come from epoch clocks shared across processes,
and the middle three split the worker's measured processing seconds — so
their sum tracks the pool's measured wall latency to within clock jitter
(the acceptance bound is 10%; in practice it is far tighter).
``model_load`` and ``detokenize`` need the worker span tree (tracing
enabled); with tracing off they read 0 and the whole processing interval
lands in ``inference``.

:class:`FlightRecorder` is the bounded memory of the slowest-N requests:
full (clock-aligned) span trees, routing context, and the stage
breakdown, plus per-stage worst-case **exemplar** trace ids — the
request you would pull up first. The serving pool owns one; it is
exposed over HTTP as ``/slow`` (:func:`~repro.serve.aggregate.pool_routes`)
and on the command line as ``kamel tail``.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span

__all__ = [
    "STAGES",
    "FlightRecord",
    "FlightRecorder",
    "stage_breakdown",
    "stage_metric",
]


STAGES: tuple[str, ...] = (
    "queue_wait",
    "model_load",
    "inference",
    "detokenize",
    "result_transit",
)
"""The fixed stage vocabulary, in request order."""

_MODEL_LOAD_SPAN = "serve.model_load"
_DETOKENIZE_SPAN = "detokenize"

DEFAULT_CAPACITY = 32
"""Slowest requests the recorder retains unless configured otherwise."""


def stage_metric(stage: str) -> str:
    """The catalog histogram name for one stage."""
    return f"repro.serve.stage.{stage}_seconds"


def _span_seconds(roots: Iterable[Span], name: str) -> float:
    total = 0.0
    for root in roots:
        for span_obj in root.find(name):
            total += span_obj.duration_s or 0.0
    return total


def stage_breakdown(
    process_s: float,
    queue_wait_s: float,
    transit_s: float,
    roots: Sequence[Span] = (),
) -> dict[str, float]:
    """Split one request's latency into the five serving stages.

    ``process_s`` is the worker's measured processing wall time;
    ``roots`` the worker's span trees for the request (may be empty —
    tracing off). All values clamp at zero: epoch-clock skew between
    processes must never produce a negative stage.
    """
    model_load = _span_seconds(roots, _MODEL_LOAD_SPAN)
    detokenize = _span_seconds(roots, _DETOKENIZE_SPAN)
    # Spans can very slightly overshoot the stopwatch interval that
    # contains them (each span exit reads the clock later than the
    # enclosing stopwatch's); clamp so the three parts never exceed the
    # whole they partition.
    model_load = min(model_load, max(0.0, process_s))
    detokenize = min(detokenize, max(0.0, process_s - model_load))
    return {
        "queue_wait": max(0.0, queue_wait_s),
        "model_load": model_load,
        "inference": max(0.0, process_s - model_load - detokenize),
        "detokenize": detokenize,
        "result_transit": max(0.0, transit_s),
    }


@dataclass
class FlightRecord:
    """Everything retained about one completed request."""

    trace_id: str
    traj_id: str
    latency_s: float
    stages: dict[str, float]
    shard: Optional[int] = None
    worker_id: Optional[int] = None
    replayed: bool = False
    error: Optional[str] = None
    context: dict = field(default_factory=dict)
    """Free-form request context (trips, segments, model calls, rungs, …)."""
    roots: list[Span] = field(default_factory=list)
    """The request's span trees, already aligned to the recording
    process's timebase."""

    @property
    def dominant_stage(self) -> str:
        """The stage that cost this request the most."""
        return max(STAGES, key=lambda s: self.stages.get(s, 0.0))

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "traj_id": self.traj_id,
            "latency_s": self.latency_s,
            "stages": dict(self.stages),
            "dominant_stage": self.dominant_stage,
            "shard": self.shard,
            "worker_id": self.worker_id,
            "replayed": self.replayed,
            "error": self.error,
            "context": dict(self.context),
            "spans": [root.to_dict() for root in self.roots],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlightRecord":
        return cls(
            trace_id=data["trace_id"],
            traj_id=data.get("traj_id", ""),
            latency_s=float(data.get("latency_s") or 0.0),
            stages={k: float(v) for k, v in (data.get("stages") or {}).items()},
            shard=data.get("shard"),
            worker_id=data.get("worker_id"),
            replayed=bool(data.get("replayed")),
            error=data.get("error"),
            context=dict(data.get("context") or {}),
            roots=[Span.from_dict(d) for d in data.get("spans") or []],
        )


class FlightRecorder:
    """A bounded record of the slowest-N requests plus stage telemetry.

    ``record()`` feeds three sinks at once:

    * the per-stage latency histograms in ``registry`` (p50/p99 for
      ``/metrics`` and ``kamel tail``), when a registry is attached;
    * per-stage worst-case exemplars — the trace id of the single most
      expensive observation of each stage so far;
    * a min-heap of the slowest ``capacity`` requests by end-to-end
      latency, span trees and routing context included.

    Thread-safe: the pool records from its drain loop while the HTTP
    handler thread renders ``/slow``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._registry = registry
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, FlightRecord]] = []
        self._seq = 0
        self.recorded_total = 0
        self._exemplars: dict[str, tuple[float, str]] = {}

    def record(self, record: FlightRecord) -> None:
        from repro.obs import instrument as obs

        with self._lock:
            self.recorded_total += 1
            self._seq += 1
            for stage in STAGES:
                value = record.stages.get(stage, 0.0)
                if self._registry is not None:
                    obs.histogram(stage_metric(stage), self._registry).observe(value)
                worst = self._exemplars.get(stage)
                if worst is None or value > worst[0]:
                    self._exemplars[stage] = (value, record.trace_id)
            entry = (record.latency_s, self._seq, record)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif record.latency_s > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def slowest(self) -> list[FlightRecord]:
        """Retained records, slowest first."""
        with self._lock:
            entries = sorted(self._heap, reverse=True)
        return [record for _, _, record in entries]

    def exemplars(self) -> dict[str, dict]:
        """Per-stage worst observation: ``{stage: {seconds, trace_id}}``."""
        with self._lock:
            return {
                stage: {"seconds": value, "trace_id": trace_id}
                for stage, (value, trace_id) in sorted(self._exemplars.items())
            }

    def stage_summary(self) -> dict[str, dict]:
        """Count/mean/p50/p99/max per stage, from the attached registry's
        histograms, with the worst-case exemplar trace id folded in."""
        exemplars = self.exemplars()
        out: dict[str, dict] = {}
        for stage in STAGES:
            row: dict = {"count": 0, "mean": 0.0, "p50": None, "p99": None, "max": None}
            if self._registry is not None:
                metric = self._registry.get(stage_metric(stage))
                if metric is not None and metric.count:
                    row = {
                        "count": metric.count,
                        "mean": metric.mean,
                        "p50": metric.quantile(0.5),
                        "p99": metric.quantile(0.99),
                        "max": metric.max,
                    }
            exemplar = exemplars.get(stage)
            if exemplar is not None:
                row["exemplar_trace_id"] = exemplar["trace_id"]
                row["exemplar_seconds"] = exemplar["seconds"]
            out[stage] = row
        return out

    def to_dict(self) -> dict:
        """The self-contained ``/slow`` payload (also what ``kamel tail``
        reads from a file)."""
        return {
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "stages": self.stage_summary(),
            "slowest": [record.to_dict() for record in self.slowest()],
        }

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self._exemplars.clear()
            self.recorded_total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, retained={len(self)}, "
            f"recorded_total={self.recorded_total})"
        )
