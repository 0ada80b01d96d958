"""The integration layer between ``repro.obs`` and the KAMEL pipeline.

The instrumented modules (``core.kamel``, ``core.imputation``,
``core.partitioning``, ``core.constraints``, ``core.detokenization``,
``mlm.bert``, ``core.streaming``, ``eval.harness``) import *only* this
module: it owns the canonical metric names (:data:`METRIC_CATALOG`), the
timing helpers, and the decorators, so the rest of the codebase never
hand-rolls ``time.perf_counter`` or invents ad-hoc metric names.

Naming convention: ``repro.<module>.<what>[_total|_seconds]`` — counters
end in ``_total``, wall-time histograms in ``_seconds``. Rejection and
mode counters append one ``.<reason>`` segment from a closed set listed
in the catalog (``docs/observability.md`` renders the full table).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional, Sequence, TypeVar

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.obs.monitor import MonitorHub
from repro.obs.tracing import span

__all__ = [
    "METRIC_CATALOG",
    "counter",
    "gauge",
    "histogram",
    "count",
    "observe",
    "monitors",
    "Stopwatch",
    "stopwatch",
    "timed",
    "catalog_description",
]

F = TypeVar("F", bound=Callable)


METRIC_CATALOG: dict[str, str] = {
    # -- system front (core.kamel) ----------------------------------------
    "repro.kamel.fit_seconds": "Wall time of Kamel.fit.",
    "repro.kamel.impute_seconds": "Wall time of one Kamel.impute trajectory.",
    "repro.kamel.trajectories_total": "Trajectories imputed.",
    "repro.kamel.segments_total": "Sparse segments examined (gap or not).",
    "repro.kamel.segments_imputed_total": "Segments wider than maxgap, sent to the imputer.",
    "repro.kamel.segments_failed_total": "Segments that fell back to the straight line (the linear ladder rung).",
    "repro.kamel.segments_degraded_total": "Segments resolved below the top ladder rung (reduced beam, counting, or linear).",
    "repro.kamel.fallback.endpoint_unseen_total": "Fallbacks: an endpoint cell never seen in training.",
    "repro.kamel.fallback.no_model_total": "Fallbacks: no repository model covers the segment.",
    "repro.kamel.fallback.search_failed_total": "Fallbacks: search starved or budget exhausted.",
    "repro.kamel.fallback.deadline_total": "Fallbacks: the impute deadline expired mid-segment.",
    "repro.kamel.fallback.circuit_open_total": "Fallbacks: a guard circuit was open at every usable rung.",
    "repro.kamel.fallback.rung_error_total": "Fallbacks: an infrastructure fault outlived the retries at every usable rung.",
    "repro.kamel.fallback.brownout_total": "Fallbacks: the brownout cap skipped every rung above linear that had a model.",
    "repro.kamel.failure_rate": "Windowed failure rate over the most recent imputed segments (the paper's Section 8 metric); cumulative = segments_failed_total / segments_imputed_total.",
    "repro.kamel.degraded_rate": "Windowed share of recent segments resolved below the top ladder rung; cumulative = segments_degraded_total / segments_imputed_total.",
    "repro.kamel.rung.full_total": "Segments resolved by the full-strength imputer (top ladder rung).",
    "repro.kamel.rung.reduced_beam_total": "Segments resolved by the reduced-beam ladder rung.",
    "repro.kamel.rung.counting_total": "Segments resolved by the counting-fallback-model ladder rung.",
    "repro.kamel.rung.linear_total": "Segments resolved by straight-line interpolation (bottom ladder rung).",
    "repro.kamel.model_calls_total": "Masked-model calls across all segments.",
    "repro.kamel.training_trajectories_total": "Trajectories ingested by fit/add_training.",
    # -- multipoint imputation (core.imputation) --------------------------
    "repro.imputation.segments_total": "Segment searches run, any strategy.",
    "repro.imputation.iterative.segments_total": "Segments run by Algorithm 1 (iterative).",
    "repro.imputation.beam.segments_total": "Segments run by Algorithm 2 (beam search).",
    "repro.imputation.single_point.segments_total": "Segments run by the single-point ablation.",
    "repro.imputation.failures_total": "Segment searches that returned no token sequence.",
    "repro.imputation.model_calls_total": "Exact masked-model queries asked across segment searches — rows of a batch and memo hits included, so it is what the budget counts (the calls_per_segment quantiles are P² estimates; use this counter for totals).",
    "repro.imputation.model_invocations_total": "predict_masked_batch invocations issued by segment searches: one per beam round with a query the memo could not answer.",
    "repro.imputation.memo_hits_total": "Queries answered from the per-segment candidate memo (asked before in this segment, by this or the previous ladder rung) instead of the model.",
    "repro.imputation.budget_exhausted_total": "Segment searches stopped by the model-call budget.",
    "repro.imputation.calls_per_segment": "Model calls spent on one segment.",
    "repro.imputation.budget_consumed_ratio": "Fraction of the per-segment call budget spent.",
    # -- model repository (core.partitioning) -----------------------------
    "repro.partitioning.lookup_total": "Repository retrievals.",
    "repro.partitioning.lookup_miss_total": "Retrievals finding no covering model.",
    "repro.partitioning.lookup_hit.single_total": "Retrievals served by a single-cell model.",
    "repro.partitioning.lookup_hit.neighbor_total": "Retrievals served by a neighbor-pair model.",
    "repro.partitioning.lookup_hit_level": "Pyramid level of each lookup hit.",
    "repro.partitioning.model_builds_total": "Models (re)trained by maintenance.",
    "repro.partitioning.model_build_seconds": "Wall time of one model (re)build.",
    # -- constraint filtering (core.constraints) --------------------------
    "repro.constraints.candidates_in_total": "Candidate tokens entering the Section 5 filters.",
    "repro.constraints.candidates_out_total": "Candidate tokens surviving all filters.",
    "repro.constraints.rejected.special_total": "Rejected: special vocabulary token.",
    "repro.constraints.rejected.speed_ellipse_total": "Rejected: outside the speed ellipse.",
    "repro.constraints.rejected.local_detour_total": "Rejected: local detour budget exceeded.",
    "repro.constraints.rejected.length_budget_total": "Rejected: path length budget exceeded.",
    "repro.constraints.rejected.direction_cone_total": "Rejected: inside a forbidden direction cone.",
    "repro.constraints.rejected.cycle_total": "Rejected: would create a repeated token block.",
    # -- detokenization (core.detokenization) -----------------------------
    "repro.detokenization.tokens_total": "Imputed tokens detokenized.",
    "repro.detokenization.mode.cell_centroid_total": "Outcome: geometric cell centroid (no metadata).",
    "repro.detokenization.mode.data_centroid_total": "Outcome: training-data centroid (no clusters).",
    "repro.detokenization.mode.single_cluster_total": "Outcome: the cell's only cluster.",
    "repro.detokenization.mode.direction_match_total": "Outcome: best direction-aligned cluster.",
    "repro.detokenization.mode.largest_cluster_total": "Outcome: largest cluster (no direction context).",
    # -- BERT backend (mlm.bert) ------------------------------------------
    "repro.bert.forward_seconds": "One BertModel pass: infer (tape-free, masked row only) at inference, forward in training.",
    "repro.bert.forward_batch_size": "Sequences per forward pass (training batches, and at inference the distinct queries of one beam round).",
    "repro.bert.predictions_total": "Masked-token queries served (rows, not forward passes).",
    "repro.bert.train_steps_total": "Optimizer steps taken across fits.",
    "repro.bert.fit_seconds": "Wall time of one BertMaskedLM.fit.",
    # -- streaming service (core.streaming) -------------------------------
    "repro.streaming.trajectories_in_total": "Raw trajectories entering the service.",
    "repro.streaming.trips_out_total": "Cleaned trips imputed.",
    "repro.streaming.points_in_total": "Raw points received.",
    "repro.streaming.points_out_total": "Points emitted after imputation.",
    "repro.streaming.process_seconds": "Wall time of one service.process call.",
    "repro.streaming.training_flushes_total": "Offline enrichment batches flushed.",
    "repro.streaming.alerts_total": "Rolling-monitor threshold alerts fired by the service.",
    "repro.streaming.quarantined_total": "Inputs dead-lettered to the quarantine store.",
    "repro.streaming.journal_replayed_total": "Pending journal entries reprocessed on service recovery.",
    # -- serving tier (repro.serve) ----------------------------------------
    "repro.serve.queue_depth": "Trajectories submitted to the serving pool and not yet dequeued by a worker (all shards; queued only — in-flight work is repro.serve.inflight).",
    "repro.serve.inflight": "Trajectories dequeued by a worker with no result accepted yet (all shards).",
    "repro.serve.shed_total": "Requests refused or evicted by admission control (typed OverloadError results; accounted, not lost).",
    "repro.serve.expired_in_queue_total": "Tasks dropped by a worker at dequeue because their request deadline passed while queued.",
    "repro.serve.submit_blocked_total": "submit() calls that had to wait on a full shard under the block admission policy.",
    "repro.serve.brownout_level": "Current pool brownout level: 0 full ladder, 1 reduced-beam cap, 2 counting cap.",
    "repro.serve.brownout_steps_total": "Brownout controller level changes (either direction).",
    "repro.serve.submitted_total": "Trajectories routed into worker task queues by the pool.",
    "repro.serve.results_total": "Trajectory results accepted from workers (after deduplication).",
    "repro.serve.duplicate_results_total": "Duplicate worker results dropped by the pool (at-least-once replay can resend).",
    "repro.serve.latency_seconds": "Submit-to-result wall time of one pooled trajectory (includes queueing).",
    "repro.serve.worker_deaths_total": "Worker processes that died and were replaced by the pool.",
    "repro.serve.journal_replayed_total": "Journal entries replayed by a replacement worker after a death.",
    "repro.serve.worker.trajectories_total": "Trajectories processed by one worker (per-worker registries; the pool merges them and labels per-worker samples).",
    "repro.serve.worker_errors_total": "Worker-side processing errors returned as error results instead of crashing the worker.",
    "repro.serve.model_lru.hits_total": "Model-LRU cache hits in a worker (model already resident).",
    "repro.serve.model_lru.misses_total": "Model-LRU cache misses in a worker (model parsed from the store).",
    "repro.serve.model_lru.evictions_total": "Models evicted from a worker's LRU after exceeding its capacity.",
    "repro.serve.model_lru.resident": "Models currently resident in a worker's LRU.",
    "repro.serve.lost_total": "Trajectories declared lost when their shard was retired with no replacement worker (submitted, never to complete).",
    "repro.serve.traced_requests_total": "Pooled trajectories whose worker span trees were shipped back and merged (tracing enabled).",
    "repro.serve.spans_dropped_total": "Worker root spans not shipped with a result because the per-result span batch was full.",
    "repro.serve.stage.queue_wait_seconds": "Per-request stage: submit to the worker dequeuing the task (shard queue wait).",
    "repro.serve.stage.model_load_seconds": "Per-request stage: parsing models out of the store on LRU misses (0 unless tracing ships the serve.model_load spans).",
    "repro.serve.stage.inference_seconds": "Per-request stage: imputation work proper — worker processing time not attributed to model loading or detokenization.",
    "repro.serve.stage.detokenize_seconds": "Per-request stage: mapping imputed tokens back to coordinates (0 unless tracing ships the detokenize spans).",
    "repro.serve.stage.result_transit_seconds": "Per-request stage: worker processing done to the pool accepting the result (serialization, the result pipe, pump backlog).",
    # -- resilience layer (repro.resilience) -------------------------------
    "repro.resilience.deadline_exceeded_total": "Segment/trajectory deadlines that expired mid-imputation.",
    "repro.resilience.rung_errors_total": "Ladder rungs abandoned after an unexpected (infrastructure) error.",
    "repro.resilience.retries_total": "Transient-failure retries across all retry policies.",
    "repro.resilience.breaker_open_total": "Circuit-breaker trips (closed/half-open to open).",
    "repro.resilience.breaker.lookup_state": "Repository-lookup breaker state: 0 closed, 1 half-open, 2 open.",
    "repro.resilience.breaker.inference_state": "Model-inference breaker state: 0 closed, 1 half-open, 2 open.",
    "repro.resilience.chaos.faults_total": "Injected faults raised by the chaos harness.",
    "repro.resilience.chaos.delays_total": "Injected latency spikes from the chaos harness.",
    "repro.resilience.chaos.corruptions_total": "Grid-cell corruptions injected by the chaos harness.",
    "repro.resilience.chaos.stalls_total": "Injected worker stalls (the deterministic overload driver: one worker wedges, its queue backs up).",
    "repro.resilience.chaos.ipc_delays_total": "Injected IPC delays (slow dequeue / delayed result pipe).",
    "repro.resilience.brownout_skips_total": "Ladder rungs skipped because a brownout cap was in force.",
    # -- evaluation harness (eval.harness) --------------------------------
    "repro.eval.train_seconds": "Harness: training one method on one workload.",
    "repro.eval.impute_seconds": "Harness: imputing one workload's test set.",
    # -- observability endpoint (obs.server) ------------------------------
    "repro.obs.scrapes_total": "GET /metrics requests served by the endpoint.",
}
"""Every metric the pipeline emits, with its meaning (the name registry
``docs/observability.md`` renders; tests assert emitted names appear here)."""

_COUNT_HISTOGRAMS = {
    "repro.imputation.calls_per_segment",
    "repro.partitioning.lookup_hit_level",
    "repro.bert.forward_batch_size",
}

_RATIO_BUCKETS: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def catalog_description(name: str) -> str:
    return METRIC_CATALOG.get(name, "")


def _buckets_for(name: str) -> Sequence[float]:
    if name in _COUNT_HISTOGRAMS:
        return COUNT_BUCKETS
    if name.endswith("_ratio"):
        return _RATIO_BUCKETS
    return LATENCY_BUCKETS


def _resolve(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    # Explicit None check: an empty registry is falsy (it has __len__),
    # and must not silently fall back to the global one.
    return get_registry() if registry is None else registry


def counter(name: str, registry: Optional[MetricsRegistry] = None) -> Counter:
    """The catalog counter ``name`` in the default (or given) registry."""
    return _resolve(registry).counter(name, catalog_description(name))


def histogram(name: str, registry: Optional[MetricsRegistry] = None) -> Histogram:
    """The catalog histogram ``name``, with buckets chosen by its kind."""
    return _resolve(registry).histogram(
        name, catalog_description(name), buckets=_buckets_for(name)
    )


def gauge(name: str, registry: Optional[MetricsRegistry] = None) -> Gauge:
    """The catalog gauge ``name`` in the default (or given) registry."""
    return _resolve(registry).gauge(name, catalog_description(name))


def count(name: str, amount: float = 1) -> None:
    """Increment a catalog counter on the default registry."""
    counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record one observation into a catalog histogram."""
    histogram(name).observe(value)


def monitors(registry: Optional[MetricsRegistry] = None) -> MonitorHub:
    """The rolling quality monitors of the default (or given) registry."""
    return _resolve(registry).monitors


class Stopwatch:
    """A perf_counter block timer, optionally feeding a histogram.

    ``seconds`` is live while the block runs and frozen at exit, so
    callers that also keep their own timing fields (``StreamStats``,
    ``MethodScores``) read the *same* measurement the registry records.
    """

    __slots__ = ("metric", "_start", "_elapsed")

    def __init__(self, metric: Optional[str] = None) -> None:
        self.metric = metric
        self._start: Optional[float] = None
        self._elapsed: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._elapsed = time.perf_counter() - self._start
        if self.metric is not None:
            observe(self.metric, self._elapsed)
        return False

    @property
    def seconds(self) -> float:
        if self._elapsed is not None:
            return self._elapsed
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start


def stopwatch(metric: Optional[str] = None) -> Stopwatch:
    """``with stopwatch("repro.eval.train_seconds") as sw: ...`` — then
    ``sw.seconds`` holds exactly what the histogram recorded."""
    return Stopwatch(metric)


def timed(metric: str, span_name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator: record the call's wall time (and optionally a span)."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span_name is None:
                with stopwatch(metric):
                    return fn(*args, **kwargs)
            with span(span_name):
                with stopwatch(metric):
                    return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
