"""Scale-out serving: a sharded multi-worker pool over the saved pyramid.

The paper's scalability story is that the pyramid model repository keeps
any single request's working set small. This package turns that into a
deployment shape: N worker processes, each owning one spatial partition
of the pyramid, behind a deterministic router.

* :mod:`repro.serve.strategies` — partition routing
  (hash-by-root-cell, spatial-range stripes, round-robin) behind
  :func:`~repro.serve.strategies.make_strategy`; seeded and
  ``PYTHONHASHSEED``-independent.
* :mod:`repro.serve.modelstore` — per-worker bounded model LRU over the
  read-only :class:`~repro.io.serialize.ModelStore`; a worker's memory
  is O(cache capacity), not O(pyramid).
* :mod:`repro.serve.protocol` — what crosses the process boundary,
  said once: ``ServeConfig``, ``WorkerSpec``, the ``TaskEnvelope`` a
  task queue carries, and the one ``result_message`` constructor.
* :mod:`repro.serve.worker` / :mod:`repro.serve.pool` — the worker
  loop and the parent-side pool: spawn, route, dedupe,
  detect-death-and-respawn with per-shard journal replay. One
  pool-owned receiver thread accepts results as they arrive, so none of
  that waits for the caller's next call.
* :mod:`repro.serve.aggregate` — fleet-wide ``/metrics`` + ``/healthz``
  from merged per-worker registries, plus ``/slow`` — the pool's
  slow-request flight recorder (:mod:`repro.obs.flight`): the route
  table :class:`~repro.obs.server.ObservabilityServer` serves.
* :mod:`repro.serve.loadtest` — ``kamel loadtest``: synthetic traffic,
  p50/p99 latency, sustained throughput, bit-for-bit verification
  against the single-process baseline, the ``--json`` report, and
  (``--trace-out``) the merged multi-worker Chrome trace with
  per-request stage attribution.

Every request is traced end to end when ``ServeConfig.trace`` is on:
the pool stamps a trace id at submit, workers record span trees inside
``trace_scope(trace_id)`` and ship them back clock-aligned, and the
five-stage latency breakdown (queue wait, model load, inference,
detokenize, result transit) feeds ``repro.serve.stage.*`` histograms
and ``kamel tail``. See docs/serving.md and docs/observability.md.

The tier is overload-protected (:mod:`repro.serve.overload`): bounded
per-shard queues with ``block`` / ``shed`` / ``shed-oldest`` admission
(refusals surface as typed :class:`~repro.errors.OverloadError`
results), cross-process request deadlines (expired tasks dropped at
dequeue, thin budgets finish on cheaper ladder rungs), and a brownout
controller that caps every shard's degradation ladder under sustained
pressure and recovers with hysteresis.
"""

from repro.serve.loadtest import LoadtestConfig, LoadtestReport, run_loadtest
from repro.serve.modelstore import LazyModel, ModelLRU, load_kamel_lazy
from repro.serve.overload import (
    ADMISSION_POLICIES,
    BrownoutConfig,
    BrownoutController,
)
from repro.serve.pool import PoolStats, ServingPool
from repro.serve.protocol import ServeConfig, WorkerSpec
from repro.serve.strategies import (
    STRATEGIES,
    HashCellStrategy,
    PartitionStrategy,
    RoundRobinStrategy,
    SpatialRangeStrategy,
    make_strategy,
    stable_shard,
)
from repro.serve.worker import worker_main

__all__ = [
    "ADMISSION_POLICIES",
    "BrownoutConfig",
    "BrownoutController",
    "HashCellStrategy",
    "LazyModel",
    "LoadtestConfig",
    "LoadtestReport",
    "ModelLRU",
    "PartitionStrategy",
    "PoolStats",
    "RoundRobinStrategy",
    "STRATEGIES",
    "ServeConfig",
    "ServingPool",
    "SpatialRangeStrategy",
    "WorkerSpec",
    "load_kamel_lazy",
    "make_strategy",
    "run_loadtest",
    "stable_shard",
    "worker_main",
]
