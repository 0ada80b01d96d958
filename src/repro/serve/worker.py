"""The worker-process side of the serving pool.

Each worker owns one spatial shard: it restores the saved system with
lazy model loading (:func:`~repro.serve.modelstore.load_kamel_lazy`),
wraps it in a :class:`~repro.core.streaming.StreamingImputationService`
(cleaning, quarantine, degradation ladder — all the single-process
machinery, unchanged), and consumes trajectories from its task queue
until it receives the ``None`` sentinel.

Durability is the worker's job, not the service's: the worker journals
``begin`` before touching a task and ``done`` only after the result is
*on the result queue*. A crash anywhere in between leaves the entry
pending, and the replacement worker the pool spawns replays it before
taking new traffic — so results are delivered at-least-once and the pool
deduplicates by trajectory id. Imputation is deterministic, so a replayed
result is byte-identical to the one the dead worker would have sent.

Everything the worker measures lands in its own process-local
:class:`~repro.obs.metrics.MetricsRegistry`; snapshots ride the result
queue (periodically and in the final ``bye`` message) for the pool to
merge into the fleet-wide ``/metrics`` view.

With tracing on (``ServeConfig.trace``), the worker also ships each
request's span trees: tasks arrive as
:class:`~repro.serve.protocol.TaskEnvelope` objects carrying the pool's
``trace_id`` and submit timestamp, the worker processes inside
``trace_scope(trace_id)``, and the result message adds the serialized
trees (bounded by ``span_batch``; overflow counts
``repro.serve.spans_dropped_total``) plus this process's
:func:`~repro.obs.tracing.clock_offset` so the pool can rebase them onto
its own timeline. The worker's ``start_epoch`` (wall clock at dequeue)
always rides along — it is what splits queue wait from processing from
result transit, tracing or not.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Optional

from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.geo import Trajectory
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import (
    clear_spans,
    clock_offset,
    enable_tracing,
    finished_spans,
    get_tracer,
    trace_scope,
    tracing_enabled,
)
from repro.resilience.chaos import ChaosConfig, ChaosMonkey, InjectedCrash
from repro.resilience.deadline import Deadline
from repro.resilience.journal import StreamJournal, trajectory_to_payload
from repro.resilience.ladder import (
    DegradationLadder,
    RUNG_COUNTING,
    RUNG_REDUCED_BEAM,
)
from repro.serve.modelstore import load_kamel_lazy
from repro.serve.overload import rung_cap_for
from repro.serve.protocol import (
    TRACE_MAX_ROOTS,
    TaskEnvelope,
    WorkerSpec,
    result_message,
)

__all__ = ["CRASH_EXIT_CODE", "worker_main"]

_log = get_logger("serve.worker")

CRASH_EXIT_CODE = 13
"""Exit status of an injected worker crash (distinguishable from bugs)."""


def _snapshot_message(
    spec: WorkerSpec, processed: int, kind: str = "metrics", **extra
) -> dict:
    """A registry snapshot for the pool to merge; the final one is the
    ``bye`` that also carries the model-LRU counters."""
    return {
        "kind": kind,
        "shard": spec.shard,
        "worker_id": spec.worker_id,
        "processed": processed,
        "snapshot": get_registry().snapshot(),
        **extra,
    }


def _process_one(
    spec: WorkerSpec,
    service: StreamingImputationService,
    journal: Optional[StreamJournal],
    result_queue,
    trajectory: Trajectory,
    replayed: bool,
    trace_id: Optional[str] = None,
    deadline: Optional[Deadline] = None,
    max_rung: Optional[str] = None,
    monkey: Optional[ChaosMonkey] = None,
) -> None:
    """Impute one trajectory and deliver its result (at-least-once).

    The ``done`` journal record is written only after the result message
    is enqueued: dying between the two re-delivers the result on replay,
    which the pool's dedupe absorbs — the safe side of the fence.
    """
    quarantined_before = service.stats.quarantined
    start_epoch = time.time()
    started = time.perf_counter()
    tracing = tracing_enabled()
    if tracing:
        # One request, one batch of roots: anything finished before this
        # task belongs to a result already shipped (or to startup).
        clear_spans()
    message = result_message(
        spec.shard, spec.worker_id, trajectory.traj_id, start_epoch,
        replayed=replayed,
    )
    try:
        with trace_scope(trace_id) as active_id:
            message["trace_id"] = active_id
            results = service.process(
                trajectory, deadline=deadline, max_rung=max_rung
            )
        rungs: dict[str, int] = {}
        for result in results:
            for rung, count in result.rung_counts.items():
                rungs[rung] = rungs.get(rung, 0) + count
        message.update(
            {
                "trips": [trajectory_to_payload(r.trajectory) for r in results],
                "segments": sum(r.num_segments for r in results),
                "failed": sum(r.num_failed for r in results),
                "degraded": sum(r.num_degraded for r in results),
                "model_calls": sum(r.total_model_calls for r in results),
                "rungs": rungs,
                "quarantined": service.stats.quarantined > quarantined_before,
            }
        )
    except Exception as exc:  # noqa: BLE001 - one bad input must not kill the shard
        obs.count("repro.serve.worker_errors_total")
        _log.error(
            "worker processing error",
            extra={"data": {"trajectory": trajectory.traj_id, "error": repr(exc)}},
        )
        # The update above is all-or-nothing, so the message still holds
        # result_message's "no work done" defaults.
        message["error"] = repr(exc)
    message["process_s"] = time.perf_counter() - started
    if tracing:
        roots = finished_spans()
        batch = spec.config.span_batch
        if len(roots) > batch:
            obs.count("repro.serve.spans_dropped_total", len(roots) - batch)
            roots = roots[:batch]
        message["spans"] = [root.to_dict() for root in roots]
        message["clock_offset"] = clock_offset()
        clear_spans()
    if monkey is not None:
        monkey.on_ipc("ipc.result")  # chaos: delayed result pipe
    result_queue.put(message)
    obs.count("repro.serve.worker.trajectories_total")
    if journal is not None:
        journal.done(trajectory.traj_id)


def _rebased_deadline(envelope: TaskEnvelope) -> Optional[Deadline]:
    """The request deadline on *this* process's clock, if the envelope
    carries one.

    The pool stamps ``deadline_epoch`` (absolute wall clock); epoch time
    is shared across processes, so converting through this process's
    :func:`~repro.obs.tracing.clock_offset` yields the same instant on
    the local ``perf_counter`` timeline — the monotonic clock
    :class:`Deadline` budgets are measured on.
    """
    if envelope.deadline_epoch is None:
        return None
    expires_pc = envelope.deadline_epoch - clock_offset()
    return Deadline(expires_pc, envelope.deadline_budget_s, clock=time.perf_counter)


def _rung_cap(control, deadline: Optional[Deadline]) -> Optional[str]:
    """The ladder cap for one task: pool brownout level (shared
    ``control`` Value) tightened by local deadline pressure — a request
    whose remaining budget is already thin (<50% left: reduced beam at
    most, <25%: counting at most) finishes late but cheaper instead of
    missing its deadline entirely."""
    cap: Optional[str] = None
    if control is not None:
        cap = rung_cap_for(int(control.value))
    if deadline is not None and not deadline.is_unlimited and deadline.budget_s > 0:
        frac = max(0.0, deadline.remaining()) / deadline.budget_s
        if frac < 0.25:
            cap = DegradationLadder.tighter_cap(cap, RUNG_COUNTING)
        elif frac < 0.5:
            cap = DegradationLadder.tighter_cap(cap, RUNG_REDUCED_BEAM)
    return cap


def worker_main(spec: WorkerSpec, task_queue, result_queue, control=None) -> None:
    """Entry point of one worker process (target of ``Process``).

    ``control`` (optional) is a shared ``multiprocessing.Value('i')``
    holding the pool's current brownout level; the worker reads it per
    task and caps the degradation ladder accordingly."""
    config = spec.config
    if config.trace:
        get_tracer().max_roots = TRACE_MAX_ROOTS
        enable_tracing()
    system, cache = load_kamel_lazy(spec.model_dir, lru_capacity=config.lru_capacity)
    # The worker journals at loop level (so delivery is part of the
    # transaction); the inner service runs journal-less. Cleaning and
    # trip splitting use the StreamingConfig defaults — the same ones the
    # single-process baseline the pool is verified against runs with.
    service = StreamingImputationService(
        system,
        StreamingConfig(quarantine_path=spec.shard_file(".quarantine.jsonl")),
    )
    journal: Optional[StreamJournal] = None
    path = spec.shard_file(".jsonl")
    if path is not None:
        journal = StreamJournal(path)
    monkey: Optional[ChaosMonkey] = None
    chaos_cfg = config.worker_chaos
    if spec.crash_after is not None:
        base = chaos_cfg or ChaosConfig(seed=config.chaos_seed)
        chaos_cfg = replace(base, crash_after=spec.crash_after)
    if chaos_cfg is not None:
        monkey = ChaosMonkey(chaos_cfg)

    processed = 0

    if spec.recover and journal is not None:
        for trajectory in journal.pending():
            obs.count("repro.serve.journal_replayed_total")
            _process_one(spec, service, journal, result_queue, trajectory, True)
            processed += 1

    while True:
        envelope: Optional[TaskEnvelope] = task_queue.get()
        if envelope is None:
            break
        trajectory = envelope.trajectory
        if monkey is not None:
            # Chaos: a stalled worker wedges *here* — after the dequeue,
            # before any durability work — so its shard's queue backs up
            # while the process stays alive (the overload scenario).
            monkey.on_dequeue()
        # Tell the pool the task left the queue: this is what splits the
        # serve_queue_depth gauge (still queued) from serve_inflight
        # (dequeued, no result yet) and lets admission refill the shard.
        result_queue.put(
            {
                "kind": "dequeued",
                "shard": spec.shard,
                "worker_id": spec.worker_id,
                "traj_id": trajectory.traj_id,
            }
        )
        if journal is not None:
            journal.begin(trajectory)
        if monkey is not None:
            try:
                # After the journal write — the injected death leaves the
                # task pending, exactly like a real crash mid-processing.
                monkey.on_process()
            except InjectedCrash:
                # An abrupt process death, not an exception unwind: no
                # goodbye message, no cleanup, no atexit — the pool must
                # notice the dead process via is_alive() and respawn.
                os._exit(CRASH_EXIT_CODE)
        deadline = _rebased_deadline(envelope)
        if deadline is not None and deadline.expired:
            # Dead on arrival: its deadline passed while it sat in the
            # queue. Report it expired (accounted, journaled done) and
            # spend the remaining capacity on requests that can still
            # make their deadline.
            obs.count("repro.serve.expired_in_queue_total")
            result_queue.put(
                result_message(
                    spec.shard, spec.worker_id, trajectory.traj_id, time.time(),
                    trace_id=envelope.trace_id,
                    expired=True,
                    error="DeadlineExceeded: request expired in queue",
                    error_type="DeadlineExceeded",
                )
            )
            if journal is not None:
                journal.done(trajectory.traj_id)
            processed += 1
            continue
        _process_one(
            spec, service, journal, result_queue, trajectory, False,
            envelope.trace_id,
            deadline=deadline,
            max_rung=_rung_cap(control, deadline),
            monkey=monkey,
        )
        processed += 1
        if config.metrics_every and processed % config.metrics_every == 0:
            result_queue.put(_snapshot_message(spec, processed))

    result_queue.put(
        _snapshot_message(
            spec, processed, "bye",
            lru={
                "capacity": cache.capacity,
                "resident": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
            },
        )
    )
