"""Scale-out serving: a sharded multi-worker pool over the saved pyramid.

The paper's scalability story is that the pyramid model repository keeps
any single request's working set small. This package turns that into a
deployment shape: N worker processes, each owning one spatial partition
of the pyramid, behind a deterministic router: a trajectory's shard is a
hash of its root cell (:func:`~repro.serve.pool.stable_shard`, BLAKE2b
over packed cell bytes, ``PYTHONHASHSEED``-independent).

* :mod:`repro.serve.modelstore` — per-worker bounded model LRU over the
  read-only :class:`~repro.io.serialize.ModelStore`; a worker's memory
  is O(cache capacity), not O(pyramid).
* :mod:`repro.serve.protocol` — what crosses the process boundary,
  said once: ``ServeConfig``, ``WorkerSpec``, the ``TaskEnvelope`` a
  task queue carries, and the one ``result_message`` constructor.
* :mod:`repro.serve.worker` / :mod:`repro.serve.pool` — the worker
  loop and the parent-side pool: spawn, route, detect-death-and-respawn
  with per-shard journal replay, books in :mod:`repro.serve.ledger`. One
  pool-owned receiver thread accepts results as they arrive, so none of
  that waits for the caller's next call.
* :mod:`repro.serve.aggregate` — fleet-wide ``/metrics`` + ``/healthz``
  from merged per-worker registries, plus ``/slow`` — the pool's
  slow-request flight recorder (:mod:`repro.obs.flight`): the route
  table :class:`~repro.obs.server.ObservabilityServer` serves.

The pool is measured by ``perf/run.py`` (``serve_flood`` /
``serve_paced``), which also checks its output bit for bit against a
single process.

Every request is traced end to end when ``ServeConfig.trace`` is on:
the pool stamps a trace id at submit, workers record span trees inside
``trace_scope(trace_id)`` and ship them back clock-aligned, and the
five-stage latency breakdown (queue wait, model load, inference,
detokenize, result transit) feeds ``repro.serve.stage.*`` histograms
and ``kamel tail``. See docs/serving.md and docs/observability.md.

The tier is overload-protected two ways, both off by default: bounded
per-shard queues that shed the newcomer when full (refusals surface as
results typed ``error_type="OverloadError"``), and cross-process
request deadlines (expired tasks dropped at dequeue, thin budgets finish
on cheaper ladder rungs).
"""

from repro.serve.modelstore import LazyModel, ModelLRU, load_kamel_lazy
from repro.serve.pool import PoolStats, ServingPool, stable_shard
from repro.serve.protocol import ServeConfig, WorkerSpec
from repro.serve.worker import worker_main

__all__ = [
    "LazyModel",
    "ModelLRU",
    "PoolStats",
    "ServeConfig",
    "ServingPool",
    "WorkerSpec",
    "load_kamel_lazy",
    "stable_shard",
    "worker_main",
]
