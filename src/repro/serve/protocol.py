"""The pool↔worker contract: everything that crosses the process boundary.

* :class:`ServeConfig` — how the tier shards, recovers and reports. The
  pool reads it and workers receive it whole inside their
  :class:`WorkerSpec` (pickled once per spawn), so a new knob is one
  field here, not a field to re-declare and copy.
* :class:`TaskEnvelope` — the only thing a task queue carries besides the
  ``None`` shutdown sentinel.
* :func:`result_message` — the one constructor of ``kind: "result"``
  messages: served, worker-error, expired-in-queue and shed results all
  start from its base key set, so every reader (``PoolStats``, ``kamel
  serve --output``, the loadtest verifier, perf/) can index those keys.

The other kinds on the result channel (``dequeued``, ``metrics``,
``bye``) are built where :mod:`repro.serve.worker` sends them and
consumed by ``ServingPool._handle``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.geo import Trajectory
from repro.resilience.chaos import ChaosConfig
from repro.serve.overload import ADMISSION_POLICIES, ADMISSION_SHED, BrownoutConfig

__all__ = [
    "TRACE_MAX_ROOTS",
    "ServeConfig",
    "TaskEnvelope",
    "WorkerSpec",
    "result_message",
]

TRACE_MAX_ROOTS = 1000
"""Bound on both a worker tracer's finished-root buffer and the pool's
merged ``trace_roots`` — tracing memory is O(this), not O(requests)."""


@dataclass(frozen=True)
class ServeConfig:
    """How the pool shards, recovers, and reports."""

    workers: int = 2
    strategy: str = "hash"
    """Partition strategy name (see :data:`repro.serve.strategies.STRATEGIES`)."""
    lru_capacity: int = 64
    """Resident models per worker."""
    journal_dir: Optional[str] = None
    """Per-shard write-ahead journals (``worker-<shard>.jsonl``) live
    here. None disables durability: a worker death then loses its
    in-flight trajectory (drain times out instead of replaying it)."""
    metrics_port: Optional[int] = None
    """Serve aggregated /metrics + /healthz + /slow on this localhost
    port (0 picks a free ephemeral port); None starts no endpoint."""
    drain_timeout_s: float = 300.0
    """Overall bound on one drain() call — the backstop against a lost
    task wedging the pool forever."""
    revive_dead_workers: bool = True
    metrics_every: int = 25
    """Workers ship a registry snapshot every this many tasks."""
    crash_worker_after: Optional[int] = None
    """Chaos: shard 0's first incarnation dies on its Nth task."""
    chaos_seed: int = 0
    trace: bool = False
    """Workers collect span trees and ship them with every result; the
    pool merges them (clock-aligned) into ``trace_roots``. Stage
    attribution and the flight recorder work with this off — only the
    span trees need it."""
    span_batch: int = 64
    """Root spans a worker ships per result (overflow dropped+counted)."""
    flight_capacity: int = 32
    """Slowest requests the pool's flight recorder retains."""
    max_queue_depth: Optional[int] = None
    """Per-shard bound on *queued* work (submitted, not yet dequeued).
    None (the default) keeps the legacy unbounded queue; with it set,
    ``submit`` applies ``admission_policy`` when the shard is full."""
    admission_policy: str = ADMISSION_SHED
    """What a full shard does to a new request: ``block`` (wait up to
    :data:`repro.serve.pool.SUBMIT_BLOCK_TIMEOUT_S`, then shed), ``shed``
    (refuse the newcomer), or ``shed-oldest`` (evict the oldest queued
    request)."""
    queue_prefetch: int = 2
    """With admission control on, envelopes kept in the OS-level task
    queue per shard; the rest wait pool-side where ``shed-oldest`` can
    still evict them. Irrelevant when ``max_queue_depth`` is None."""
    request_deadline_s: Optional[float] = None
    """Absolute per-request deadline stamped on every envelope at
    submit. Workers drop tasks whose deadline passed in the queue
    (counted ``expired``), thread the remaining budget into the
    degradation ladder, and cap the ladder for requests whose budget is
    mostly gone (``repro.serve.worker._rung_cap``)."""
    brownout: Optional[BrownoutConfig] = None
    """Enable the pool-side brownout controller: under sustained queue
    pressure every shard's ladder is capped (full → reduced beam →
    counting), stepping back up with hysteresis. None disables it."""
    worker_chaos: Optional[ChaosConfig] = None
    """Chaos injected into every worker (IPC delays, stalls); shard 0's
    ``crash_worker_after`` (when set) is merged on top."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers!r}")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission_policy!r}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth!r}"
            )
        if self.queue_prefetch < 1:
            raise ConfigError(
                f"queue_prefetch must be >= 1, got {self.queue_prefetch!r}"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ConfigError(
                "request_deadline_s must be positive, got "
                f"{self.request_deadline_s!r}"
            )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    worker_id: int
    """Incarnation-unique id (a respawn on the same shard gets a new one)."""
    shard: int
    """The partition this worker owns; stable across respawns."""
    model_dir: str
    """Directory written by :func:`repro.io.save_kamel`."""
    recover: bool = False
    """Replay the shard journal's pending entries before new traffic."""
    crash_after: Optional[int] = None
    """Chaos: die (``os._exit``) on the Nth task taken from the queue."""
    config: ServeConfig = field(default_factory=ServeConfig)
    """The pool's configuration, shipped whole."""

    def shard_file(self, suffix: str) -> Optional[str]:
        """``<journal_dir>/worker-<shard><suffix>`` (the shard's journal
        and quarantine files); None when durability is off."""
        if self.config.journal_dir is None:
            return None
        return os.path.join(self.config.journal_dir, f"worker-{self.shard}{suffix}")


@dataclass(frozen=True)
class TaskEnvelope:
    """One submitted trajectory on its way to a worker."""

    trajectory: Trajectory
    trace_id: str
    """Minted by the pool at submit; the worker processes inside
    ``trace_scope(trace_id)`` so both halves join one trace."""
    submit_epoch: float
    """Submit wall clock — epoch time is shared across processes, so the
    worker's ``start_epoch`` minus this is the queue wait."""
    deadline_epoch: Optional[float] = None
    """Absolute wall-clock deadline; None when the pool sets no
    ``request_deadline_s``. Set together with ``deadline_budget_s``."""
    deadline_budget_s: Optional[float] = None
    """The full budget the deadline started with (what "under half the
    budget left" is measured against)."""


def result_message(
    shard: int,
    worker_id: Optional[int],
    traj_id: str,
    start_epoch: Optional[float],
    **overrides,
) -> dict:
    """A ``kind: "result"`` message: the base key set every result
    carries, with "no work done" defaults that ``overrides`` replace or
    extend (``trace_id``, ``expired``/``shed`` markers, ``error_type``,
    shipped ``spans``…).

    ``start_epoch`` is the worker's wall clock at dequeue; it and
    ``worker_id`` are None only for shed results, which never reached a
    worker.
    """
    message = {
        "kind": "result",
        "shard": shard,
        "worker_id": worker_id,
        "traj_id": traj_id,
        "start_epoch": start_epoch,
        "process_s": 0.0,
        "replayed": False,
        "error": None,
        "trips": [],
        "segments": 0,
        "failed": 0,
        "degraded": 0,
        "model_calls": 0,
        "rungs": {},
        "quarantined": False,
    }
    message.update(overrides)
    return message
