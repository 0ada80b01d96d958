"""The sharded serving pool: router, worker lifecycle, result accounting.

:class:`ServingPool` is the parent-side half of ``repro.serve``. It
spawns one worker process per shard (``multiprocessing`` ``spawn``
context — no inherited state, same behavior everywhere), routes each
submitted trajectory to a shard with a
:class:`~repro.serve.strategies.PartitionStrategy`, and collects results
from a shared queue.

Delivery semantics are **at-least-once from workers, exactly-once to the
caller**: a worker journals each task and may re-send results after a
crash-and-replay, and the pool deduplicates by trajectory id. A worker
that dies (detected via ``Process.is_alive`` on the receiver's tick) is
replaced by a new incarnation on the *same* task queue with
``recover=True``, so it first replays its shard journal — the
failure-handling story of the single-process service, lifted to a fleet.

Results are accepted **when they arrive**, not when the client next
calls in: one pool-owned receiver thread (``start()`` to ``stop()``)
blocks on the result pipe and handles every message under the pool lock
it shares with ``submit``; ``drain()``, ``stop()`` and ``block``
admission sleep on that lock's condition. Worker liveness and brownout
run on the receiver too, so a dead worker is revived and the telemetry
stays current while the client is idle (docs/serving.md, "Threading
model").

The pool is also the fleet's observability point: per-worker registry
snapshots arriving on the result queue are merged
(:func:`~repro.obs.metrics.merge_snapshots`) with the parent's own
``repro.serve.*`` metrics into one ``/metrics`` view, served by an
:class:`~repro.obs.server.ObservabilityServer` over
:func:`~repro.serve.aggregate.pool_routes` when ``metrics_port`` is set.

Every request is additionally **attributed**: ``submit`` stamps each
task envelope with a fresh trace id and the submit wall clock, the
worker reports when it dequeued the task and how long it processed, and
``_handle_result`` derives the five-stage latency breakdown
(:func:`~repro.obs.flight.stage_breakdown`) — feeding the
``repro.serve.stage.*`` histograms and the slowest-N
:class:`~repro.obs.flight.FlightRecorder` behind ``/slow`` and
``kamel tail``. With ``ServeConfig.trace`` on, workers also ship their
span trees; the pool rebases each tree onto its own timeline
(:func:`~repro.obs.tracing.clock_offset` difference), grafts it under a
synthetic ``serve.request`` root bracketed by ``serve.queue_wait`` and
``serve.result_transit`` spans, and keeps the merged roots in
``trace_roots`` for a fleet-wide Chrome trace (one lane per shard).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable
from typing import Callable, Iterator, Optional, Union

from repro.core.partitioning import PyramidIndex
from repro.core.tokenization import make_grid
from repro.errors import ConfigError, PoolReceiverError
from repro.geo import BoundingBox, Trajectory
from repro.obs import instrument as obs
from repro.obs.flight import FlightRecord, FlightRecorder, stage_breakdown
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, merge_snapshots
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import Span, clock_offset, new_trace_id
from repro.serve.aggregate import pool_routes
from repro.serve.overload import (
    ADMISSION_SHED,
    ADMISSION_SHED_OLDEST,
    BrownoutController,
)
from repro.serve.protocol import (
    TRACE_MAX_ROOTS,
    ServeConfig,
    TaskEnvelope,
    WorkerSpec,
    result_message,
)
from repro.serve.strategies import PartitionStrategy, make_strategy
from repro.serve.worker import worker_main

__all__ = ["PoolStats", "ServeConfig", "ServingPool"]

_log = get_logger("serve.pool")

MAX_REVIVES_PER_SHARD = 3
"""Backstop against a poisoned shard crash-looping: after this many
respawns, the shard is left dead and drain() reports its work lost."""

SUBMIT_BLOCK_TIMEOUT_S = 30.0
"""How long the ``block`` admission policy backpressures ``submit`` on a
full shard before shedding the newcomer after all."""

RECEIVER_TICK_S = 0.25
"""How often the receiver thread, traffic or not, wakes to check worker
liveness and feed the brownout controller — how long a dead worker can
go unnoticed, and the wake-up rate an idle pool costs."""


class _SyncQueue:
    """A synchronous many-writers/one-reader message channel.

    ``multiprocessing.Queue.put`` hands the object to a background feeder
    thread and returns immediately — so a worker that crashes hard right
    after ``put`` can lose the message, *after* it already journaled the
    task ``done``. That breaks the delivery fence the journal protocol
    relies on. This channel sends on a plain pipe under a cross-process
    lock instead: when ``put`` returns, the bytes are in the kernel pipe,
    and a subsequent ``os._exit`` cannot take them back.
    """

    def __init__(self, ctx) -> None:
        # Public: the pool's receiver waits on it next to its wake pipe.
        self.reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, obj) -> None:
        with self._lock:
            self._writer.send(obj)

    def ready(self) -> Iterator:
        """Every message readable right now; never blocks for the next."""
        while self.reader.poll(0):
            yield self.reader.recv()

    def close(self) -> None:
        self.reader.close()
        self._writer.close()


@dataclass
class PoolStats:
    """Fleet-wide accounting over one pool lifetime."""

    submitted: int = 0
    completed: int = 0
    duplicates: int = 0
    journal_replayed: int = 0
    worker_deaths: int = 0
    errors: int = 0
    quarantined: int = 0
    trips: int = 0
    segments: int = 0
    failed_segments: int = 0
    degraded_segments: int = 0
    model_calls: int = 0
    declared_lost: int = 0
    """Trajectories explicitly written off when their shard was retired
    with no replacement worker."""
    shed: int = 0
    """Requests refused (or evicted) by admission control — surfaced as
    typed :class:`~repro.errors.OverloadError` results, never lost."""
    expired: int = 0
    """Requests whose deadline passed while queued; the worker dropped
    them on dequeue without doing the work."""
    peak_queue_depth: int = 0
    """Deepest any single shard's queued backlog ever got (the bound the
    overload loadtest asserts against ``max_queue_depth``)."""
    rungs: dict[str, int] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Submitted trajectories never accounted for (should be 0).

        Shed and expired requests are *accounted*: every submission ends
        up exactly one of completed / shed / expired / lost."""
        return max(0, self.submitted - self.completed - self.shed - self.expired)


@dataclass(frozen=True)
class _Pending:
    """What the pool remembers about one in-flight trajectory."""

    shard: int
    submitted_pc: float
    """Submit time on this process's perf_counter clock (latency base)."""
    submit_epoch: float
    """Submit wall clock (the cross-process queue-wait base)."""


def _routing_context(
    model_dir: Union[str, pathlib.Path]
) -> tuple[object, Optional[BoundingBox]]:
    """Grid + data region for the router, read from the saved system's
    metadata only — no model files are parsed in the parent."""
    root = pathlib.Path(model_dir)
    config_payload = json.loads(root.joinpath("config.json").read_text())
    grid = make_grid(config_payload["grid_type"], config_payload["cell_edge_m"])
    meta = json.loads(root.joinpath("system.json").read_text())
    region: Optional[BoundingBox] = None
    if meta.get("pyramid") is not None:
        pyramid = PyramidIndex(
            BoundingBox(*meta["pyramid"]["root"]), meta["pyramid"]["height"]
        )
        keys = [
            tuple(int(v) for v in name.split("_"))
            for name in meta.get("token_counts", {})
        ]
        if keys:
            # The union of the deepest occupied pyramid cells hugs the
            # training data much tighter than the pyramid root (which is
            # padded out to a power-of-two square), so range sharding
            # stripes actual traffic, not empty margin.
            deepest = max(k[0] for k in keys)
            boxes = [pyramid.cell_bbox(k) for k in keys if k[0] == deepest]
            region = BoundingBox(
                min(b.min_x for b in boxes),
                min(b.min_y for b in boxes),
                max(b.max_x for b in boxes),
                max(b.max_y for b in boxes),
            )
        else:
            region = pyramid.root
    return grid, region


class ServingPool:
    """N worker processes behind a deterministic spatial router."""

    def __init__(
        self,
        model_dir: Union[str, pathlib.Path],
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.model_dir = str(model_dir)
        self.config = config or ServeConfig()
        grid, region = _routing_context(self.model_dir)
        self.strategy: PartitionStrategy = make_strategy(
            self.config.strategy,
            self.config.workers,
            grid=grid,
            region=region,
        )
        self.stats = PoolStats()
        self.results: dict[str, dict] = {}
        self.worker_processed: dict[int, int] = {
            shard: 0 for shard in range(self.config.workers)
        }
        self.worker_snapshots: dict[int, dict] = {}
        self.worker_lru: dict[int, dict] = {}
        # spawn: no inherited state, the same behavior on every platform.
        self._ctx = mp.get_context("spawn")
        self._task_queues: list = []
        self._result_queue = None
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._revives: dict[int, int] = {}
        self._incarnations = 0
        self._byes: set[int] = set()
        self._outstanding: dict[str, _Pending] = {}
        # Admission bookkeeping: envelopes wait pool-side in _buffers
        # (evictable) and only queue_prefetch of them sit in the OS-level
        # task queue at a time; _in_queue / _inflight track the
        # queued-vs-dequeued split the two gauges report.
        self._buffers: dict[int, deque] = {
            shard: deque() for shard in range(self.config.workers)
        }
        self._in_queue: dict[int, int] = {
            shard: 0 for shard in range(self.config.workers)
        }
        self._inflight: dict[int, int] = {
            shard: 0 for shard in range(self.config.workers)
        }
        self._in_queue_ids: set[str] = set()
        self._dequeued_ids: set[str] = set()
        self._control = None
        self.brownout: Optional[BrownoutController] = (
            BrownoutController(self.config.brownout)
            if self.config.brownout is not None
            else None
        )
        self._started = False
        self._stopping = False
        # One lock for all pool state: the receiver thread holds it while
        # it handles messages, callers while they submit or read; waiters
        # (drain, stop, block admission) sleep on its condition, which
        # the receiver notifies after every wake-up.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._receiver: Optional[threading.Thread] = None
        self._receiver_error: Optional[BaseException] = None
        self._wake_reader = self._wake_writer = None
        self.metrics_server = None
        self._clock_offset = clock_offset()
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity, registry=get_registry()
        )
        self.trace_roots: list[Span] = []
        """Merged, clock-aligned ``serve.request`` trees (tracing on),
        one Chrome-trace lane per shard; bounded by ``TRACE_MAX_ROOTS``."""
        self.trace_lanes: dict[int, str] = {}
        """Synthetic thread id -> lane name for the merged trace."""

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServingPool":
        if self._started:
            return self
        self._result_queue = _SyncQueue(self._ctx)
        if self.brownout is not None:
            # Workers read the current brownout level per task; writes
            # are pool-only, reads are a single int — a shared Value is
            # exactly enough machinery.
            self._control = self._ctx.Value("i", 0)
        for shard in range(self.config.workers):
            self._task_queues.append(self._ctx.Queue())
            self._spawn(shard, recover=False)
        # stop() ends the receiver's blocking wait through this pipe, not
        # through the result pipe: a one-byte write to it can neither
        # block on a full pipe nor interleave with a worker's message.
        self._wake_reader, self._wake_writer = self._ctx.Pipe(duplex=False)
        self._receiver = threading.Thread(
            target=self._receive, name="kamel-serve-receiver", daemon=True
        )
        self._receiver.start()
        self._started = True
        if self.config.metrics_port is not None:
            self.metrics_server = ObservabilityServer(
                port=self.config.metrics_port, routes=pool_routes(self)
            ).start()
        _log.info(
            "serving pool started",
            extra={"data": {
                "workers": self.config.workers,
                "strategy": self.strategy.name,
                "model_dir": self.model_dir,
            }},
        )
        return self

    def _spawn(self, shard: int, recover: bool) -> None:
        self._incarnations += 1
        # Chaos: only shard 0's first incarnation gets the injected crash.
        crash_first = shard == 0 and not recover
        spec = WorkerSpec(
            worker_id=self._incarnations,
            shard=shard,
            model_dir=self.model_dir,
            recover=recover,
            crash_after=self.config.crash_worker_after if crash_first else None,
            config=self.config,
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(spec, self._task_queues[shard], self._result_queue, self._control),
            name=f"kamel-serve-{shard}",
            daemon=True,
        )
        proc.start()
        self._procs[shard] = proc
        self._byes.discard(shard)

    def __enter__(self) -> "ServingPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission & draining ---------------------------------------------

    def submit(self, trajectory: Trajectory) -> int:
        """Route one trajectory to its shard; returns the shard index.

        The task goes out as an envelope carrying a fresh trace id, the
        submit wall clock, and (with ``request_deadline_s`` set) the
        absolute deadline, so the worker can join the request's trace,
        split queue wait from processing, and drop tasks that expired in
        the queue.

        With ``max_queue_depth`` set, a full shard applies the admission
        policy first; a refused trajectory still returns its shard — it
        lands in ``results`` as a typed ``OverloadError`` entry instead
        of being queued (never silently dropped).
        """
        if not self._started:
            raise ConfigError("pool not started (use start() or a with-block)")
        with self._lock:
            self._raise_if_receiver_failed()
            shard = self.strategy.shard_for(trajectory)
            self.stats.submitted += 1
            obs.count("repro.serve.submitted_total")
            max_depth = self.config.max_queue_depth
            if max_depth is not None and self._depth(shard) >= max_depth:
                if not self._make_room(shard):
                    self._shed(trajectory.traj_id, shard, "shard queue full")
                    return shard
            submit_epoch = time.time()
            self._outstanding[trajectory.traj_id] = _Pending(
                shard=shard,
                submitted_pc=time.perf_counter(),
                submit_epoch=submit_epoch,
            )
            budget_s = self.config.request_deadline_s
            self._buffers[shard].append(
                TaskEnvelope(
                    trajectory, new_trace_id(), submit_epoch,
                    deadline_epoch=(
                        None if budget_s is None else submit_epoch + budget_s
                    ),
                    deadline_budget_s=budget_s,
                )
            )
            self._feed(shard)
            self._note_depth()
            return shard

    # -- admission control ---------------------------------------------------

    def _depth(self, shard: int) -> int:
        """Queued (not yet dequeued) tasks for one shard: the pool-side
        buffer plus what already sits in the OS-level task queue."""
        return len(self._buffers[shard]) + self._in_queue.get(shard, 0)

    def _make_room(self, shard: int) -> bool:
        """Apply the admission policy to a full shard.

        Returns True when the newcomer may now be queued; False means
        the caller sheds the newcomer instead.
        """
        policy = self.config.admission_policy
        if policy == ADMISSION_SHED:
            return False
        if policy == ADMISSION_SHED_OLDEST:
            buffer = self._buffers[shard]
            if not buffer:
                # Everything queued is already in the OS-level pipe where
                # it can't be recalled — shed the newcomer instead.
                return False
            victim = buffer.popleft()
            victim_id = victim.trajectory.traj_id
            self._outstanding.pop(victim_id, None)
            self._shed(victim_id, shard, "evicted by a newer request")
            return True
        # block: sleep until the receiver has made room on the shard or
        # the timeout passes (then shed — blocking forever is the failure
        # mode this whole layer exists to remove).
        max_depth = self.config.max_queue_depth
        obs.count("repro.serve.submit_blocked_total")
        return self._wait_for(
            lambda: self._depth(shard) < max_depth, SUBMIT_BLOCK_TIMEOUT_S
        )

    def _shed(self, traj_id: str, shard: int, why: str) -> None:
        """Refuse one request: account it and surface a typed error result."""
        policy = self.config.admission_policy
        self.stats.shed += 1
        obs.count("repro.serve.shed_total")
        # Never reached a worker: no worker id, no dequeue time.
        self.results[traj_id] = result_message(
            shard, None, traj_id, None,
            shed=True,
            policy=policy,
            error=f"OverloadError: {why} (shard {shard}, policy {policy})",
            error_type="OverloadError",
        )
        _log.warning(
            "request shed by admission control",
            extra={"data": {"traj_id": traj_id, "shard": shard,
                            "policy": policy, "why": why}},
        )

    def _feed(self, shard: int) -> None:
        """Move buffered envelopes into the shard's OS-level task queue,
        up to the prefetch window (everything, when unbounded)."""
        prefetch: Optional[int] = None
        if self.config.max_queue_depth is not None:
            prefetch = min(self.config.queue_prefetch, self.config.max_queue_depth)
        buffer = self._buffers[shard]
        while buffer and (prefetch is None or self._in_queue[shard] < prefetch):
            envelope = buffer.popleft()
            self._task_queues[shard].put(envelope)
            self._in_queue[shard] += 1
            self._in_queue_ids.add(envelope.trajectory.traj_id)

    def _note_depth(self) -> None:
        """Refresh the queued/inflight gauges and the peak-depth stat."""
        shards = range(self.config.workers)
        total_queued = sum(self._depth(shard) for shard in shards)
        deepest = max((self._depth(shard) for shard in shards), default=0)
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth, deepest)
        obs.gauge("repro.serve.queue_depth").set(total_queued)
        obs.gauge("repro.serve.inflight").set(
            float(sum(self._inflight.values()))
        )

    # -- brownout ------------------------------------------------------------

    def _queue_wait_p99(self) -> Optional[float]:
        """None until a first request has been attributed."""
        return self.flight.stage_summary()["queue_wait"]["p99"]

    def _brownout_tick(self) -> None:
        """Feed the brownout controller one pressure sample (rate-limited
        by its own interval) and publish a level change to the workers."""
        if self.brownout is None:
            return
        depth = max(
            (self._depth(shard) for shard in range(self.config.workers)),
            default=0,
        )
        new_level = self.brownout.evaluate(depth, self._queue_wait_p99())
        if new_level is not None and self._control is not None:
            self._control.value = new_level

    def brownout_settle(self, timeout_s: float = 10.0) -> int:
        """Wait for the controller to step back to level 0 on an idle
        pool (or for the timeout); returns the final level. The
        receiver's tick keeps feeding it; the overload loadtest calls
        this after draining so a clean run shows the full
        step-down/step-up cycle."""
        if self.brownout is None:
            return 0
        with self._lock:
            self._wait_for(lambda: self.brownout.level == 0, timeout_s)
            return self.brownout.level

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def drain(self, timeout: Optional[float] = None) -> dict[str, dict]:
        """Wait until every submitted trajectory has a result (or timeout).

        Returns a copy of the accumulated ``traj_id -> result message``
        map. The receiver thread does the accepting (and revives dead
        shards, or writes their work off) whether or not anyone waits
        here; on timeout this logs the unaccounted ids and returns what
        arrived — ``stats.lost`` then says how many never came back.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._lock:
            if not self._wait_for(lambda: not self._outstanding, timeout):
                _log.error(
                    "drain timed out with unaccounted trajectories",
                    extra={"data": {
                        "outstanding": len(self._outstanding),
                        "ids": sorted(self._outstanding)[:10],
                    }},
                )
            return dict(self.results)

    def process_all(
        self, trajectories, timeout: Optional[float] = None
    ) -> dict[str, dict]:
        """Submit a batch and drain it (the loadtest / CLI convenience)."""
        for trajectory in trajectories:
            self.submit(trajectory)
        return self.drain(timeout=timeout)

    # -- message handling --------------------------------------------------

    def _receive(self) -> None:
        """The receiver thread: accept every worker message as it
        arrives, check worker liveness every ``RECEIVER_TICK_S``, and
        wake whoever sleeps on the pool condition.

        Each wake-up — a batch of messages, or the tick on an idle pool
        — handles everything already readable in one lock hold and
        feeds the brownout controller once (it rate-limits itself). A
        failure here is stored for the next ``submit`` / ``drain`` /
        ``stop`` to raise: a dead receiver must never look like a slow
        pool.
        """
        channel = self._result_queue
        next_tick = time.monotonic() + RECEIVER_TICK_S
        try:
            while True:
                woken = wait_readable(
                    [channel.reader, self._wake_reader],
                    max(0.0, next_tick - time.monotonic()),
                )
                with self._lock:
                    for message in channel.ready():
                        self._handle(message)
                    if time.monotonic() >= next_tick:
                        self._check_workers()
                        next_tick = time.monotonic() + RECEIVER_TICK_S
                    self._brownout_tick()
                    self._note_depth()
                    self._cond.notify_all()
                if self._wake_reader in woken:
                    return
        except Exception as exc:  # noqa: BLE001 - stored, re-raised to the caller
            _log.error(
                "receiver thread failed; the pool can accept no more results",
                extra={"data": {"error": repr(exc)}},
                exc_info=True,
            )
            with self._lock:
                self._receiver_error = exc
                self._cond.notify_all()

    def _raise_if_receiver_failed(self) -> None:
        if self._receiver_error is not None:
            raise PoolReceiverError(
                f"receiver thread failed: {self._receiver_error!r}"
            ) from self._receiver_error

    def _wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Sleep on the pool condition (lock held by the caller) until
        the receiver has made ``predicate`` true or ``timeout`` passes;
        returns whether it holds. Raises if the receiver failed — then
        nothing would ever make it true."""
        held = self._cond.wait_for(
            lambda: self._receiver_error is not None or predicate(), timeout
        )
        self._raise_if_receiver_failed()
        return held

    def _handle(self, message: dict) -> None:
        kind = message.get("kind")
        if kind == "result":
            self._handle_result(message)
        elif kind == "dequeued":
            self._handle_dequeued(message)
        elif kind in ("metrics", "bye"):
            self.worker_snapshots[message["shard"]] = message["snapshot"]
            if kind == "bye":
                self._byes.add(message["shard"])
                self.worker_lru[message["shard"]] = message["lru"]

    def _handle_dequeued(self, message: dict) -> None:
        """A worker pulled a task off its queue: move it from queued to
        in-flight and refill the shard's prefetch window."""
        traj_id = message["traj_id"]
        shard = message["shard"]
        if traj_id in self._in_queue_ids:
            self._in_queue_ids.discard(traj_id)
            self._in_queue[shard] = max(0, self._in_queue.get(shard, 0) - 1)
        if traj_id in self._outstanding and traj_id not in self._dequeued_ids:
            self._dequeued_ids.add(traj_id)
            self._inflight[shard] = self._inflight.get(shard, 0) + 1
        self._feed(shard)

    def _handle_result(self, message: dict) -> None:
        traj_id = message["traj_id"]
        if traj_id in self.results:
            # At-least-once delivery: a replayed task can re-send a result
            # the dead worker already delivered. Exactly-once is restored
            # here, by id.
            self.stats.duplicates += 1
            obs.count("repro.serve.duplicate_results_total")
            self._outstanding.pop(traj_id, None)
            return
        handle_epoch = time.time()
        self.results[traj_id] = message
        expired = bool(message.get("expired"))
        if expired:
            self.stats.expired += 1
        else:
            self.stats.completed += 1
            obs.count("repro.serve.results_total")
        pending = self._outstanding.pop(traj_id, None)
        shard = message["shard"]
        # Reconcile the queued/in-flight split. A result without a prior
        # "dequeued" notification (journal replay, or the worker died
        # between dequeuing and notifying) still settles the books here.
        if traj_id in self._in_queue_ids:
            self._in_queue_ids.discard(traj_id)
            self._in_queue[shard] = max(0, self._in_queue.get(shard, 0) - 1)
        if traj_id in self._dequeued_ids:
            self._dequeued_ids.discard(traj_id)
            self._inflight[shard] = max(0, self._inflight.get(shard, 0) - 1)
        latency_s = None
        if pending is not None and not expired:
            # Expired tasks are excluded from the latency histogram: the
            # accepted-request p50/p99 is the SLA signal, and a deadline
            # miss is already counted on its own metric.
            latency_s = time.perf_counter() - pending.submitted_pc
            obs.observe("repro.serve.latency_seconds", latency_s)
        self._feed(shard)
        self.worker_processed[shard] = self.worker_processed.get(shard, 0) + 1
        if message["replayed"]:
            self.stats.journal_replayed += 1
        if message["error"] and not expired:
            self.stats.errors += 1
        if message["quarantined"]:
            self.stats.quarantined += 1
        self.stats.trips += len(message["trips"])
        self.stats.segments += message["segments"]
        self.stats.failed_segments += message["failed"]
        self.stats.degraded_segments += message["degraded"]
        self.stats.model_calls += message["model_calls"]
        for rung, count in message["rungs"].items():
            self.stats.rungs[rung] = self.stats.rungs.get(rung, 0) + count
        if pending is not None and latency_s is not None:
            self._attribute(message, pending, latency_s, handle_epoch)

    # -- tail-latency attribution -------------------------------------------

    def _attribute(
        self,
        message: dict,
        pending: _Pending,
        latency_s: float,
        handle_epoch: float,
    ) -> None:
        """Derive the request's stage breakdown, feed the flight recorder,
        and (tracing on) merge the shipped span tree into ``trace_roots``."""
        process_s = message["process_s"]
        start_epoch = message["start_epoch"]
        queue_wait = start_epoch - pending.submit_epoch
        transit = handle_epoch - start_epoch - process_s
        roots: list[Span] = []
        if message.get("spans"):
            offset = message["clock_offset"] - self._clock_offset
            roots = [Span.from_dict(d).shift(offset) for d in message["spans"]]
            obs.count("repro.serve.traced_requests_total")
        record = FlightRecord(
            trace_id=message["trace_id"],
            traj_id=message["traj_id"],
            latency_s=latency_s,
            stages=stage_breakdown(process_s, queue_wait, transit, roots),
            shard=pending.shard,
            worker_id=message["worker_id"],
            replayed=message["replayed"],
            error=message["error"],
            context={
                "strategy": self.strategy.name,
                "trips": len(message["trips"]),
                "segments": message["segments"],
                "model_calls": message["model_calls"],
                "rungs": dict(message["rungs"]),
            },
        )
        if roots:
            request_root = self._request_tree(
                record, pending, roots, process_s, start_epoch, handle_epoch
            )
            record.roots = [request_root]
            self.trace_roots.append(request_root)
            del self.trace_roots[:-TRACE_MAX_ROOTS]  # keep the newest
        self.flight.record(record)

    def _request_tree(
        self,
        record: FlightRecord,
        pending: _Pending,
        roots: list[Span],
        process_s: float,
        start_epoch: float,
        handle_epoch: float,
    ) -> Span:
        """Graft the worker's (rebased) span trees under one synthetic
        ``serve.request`` root spanning submit-to-result, with synthetic
        ``serve.queue_wait`` / ``serve.result_transit`` brackets. The
        whole tree lands on one lane per shard in the merged trace."""
        lane = pending.shard + 1
        self.trace_lanes.setdefault(lane, f"shard {pending.shard}")
        submit_pc = pending.submit_epoch - self._clock_offset
        handle_pc = handle_epoch - self._clock_offset
        request = Span(
            "serve.request",
            {
                "traj_id": record.traj_id,
                "shard": pending.shard,
                "worker_id": record.worker_id,
                "replayed": record.replayed,
            },
            trace_id=record.trace_id,
        )
        request.start_s = submit_pc
        request.end_s = max(submit_pc, handle_pc)
        start_pc = start_epoch - self._clock_offset
        wait = Span("serve.queue_wait", trace_id=record.trace_id)
        wait.start_s = submit_pc
        wait.end_s = max(submit_pc, start_pc)
        request.children.append(wait)
        request.children.extend(roots)
        transit = Span("serve.result_transit", trace_id=record.trace_id)
        transit.end_s = handle_pc
        transit.start_s = min(max(submit_pc, start_pc + process_s), handle_pc)
        request.children.append(transit)
        for span_obj in request.walk():
            span_obj.thread_id = lane
        return request

    # -- worker liveness ---------------------------------------------------

    def _check_workers(self) -> None:
        """Revive (or retire) every shard whose worker died; runs on the
        receiver's tick, so it needs no caller to be waiting."""
        for shard, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            if shard in self._byes:
                # Retired: whatever was routed here since can't complete
                # either, and must not keep drain() waiting.
                self._declare_lost(shard)
                continue
            proc.join(timeout=1.0)
            self.stats.worker_deaths += 1
            obs.count("repro.serve.worker_deaths_total")
            _log.warning(
                "worker died; respawning its shard",
                extra={"data": {
                    "shard": shard,
                    "exitcode": proc.exitcode,
                    "revive": self.config.revive_dead_workers,
                }},
            )
            revives = self._revives.get(shard, 0)
            if (
                self.config.revive_dead_workers
                and not self._stopping
                and revives < MAX_REVIVES_PER_SHARD
            ):
                # Same task queue (undrained work survives), recover=True
                # (the replacement replays the shard journal first).
                self._revives[shard] = revives + 1
                self._spawn(shard, recover=True)
            else:
                self._byes.add(shard)
                self._declare_lost(shard)

    def _declare_lost(self, shard: int) -> None:
        """Write off a retired shard's in-flight work.

        No worker will ever drain this shard's queue again, so its
        outstanding trajectories can't complete: drop them from the
        in-flight map (so ``queue_depth`` and ``drain()`` reflect
        reality instead of waiting out the timeout) and count them.
        A straggler result already in the pipe is still accepted by
        ``_handle_result`` — it just no longer has a pending entry.
        """
        lost = [
            traj_id
            for traj_id, pending in self._outstanding.items()
            if pending.shard == shard
        ]
        if not lost:
            return
        for traj_id in lost:
            del self._outstanding[traj_id]
            self._in_queue_ids.discard(traj_id)
            self._dequeued_ids.discard(traj_id)
        self._buffers[shard].clear()
        self._in_queue[shard] = 0
        self._inflight[shard] = 0
        self.stats.declared_lost += len(lost)
        obs.count("repro.serve.lost_total", len(lost))
        self._note_depth()
        _log.error(
            "shard retired with in-flight work; declaring it lost",
            extra={"data": {
                "shard": shard,
                "lost": len(lost),
                "ids": sorted(lost)[:10],
            }},
        )

    # -- shutdown ----------------------------------------------------------

    def stop(self, timeout: float = 20.0) -> None:
        """Sentinel every shard, collect goodbyes, reap the processes.

        Escalation ladder: poison pills and a graceful join first, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) — Ctrl-C or
        a supervisor's SIGTERM must never leave orphan workers behind.
        """
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
            for task_queue in self._task_queues:
                task_queue.put(None)
            # A shard that dies instead of saying goodbye is added to
            # _byes by the receiver's tick (no revival while stopping).
            try:
                self._wait_for(lambda: len(self._byes) >= len(self._procs), timeout)
            except PoolReceiverError:
                pass  # raised below, once the workers are reaped
            # Still under the lock: the receiver's tick polls these
            # processes too, and two threads must not reap one pid.
            for proc in self._procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                if proc.is_alive():
                    # A worker wedged through SIGTERM (stalled in C code,
                    # or chaos-stalled): SIGKILL is the no-orphans backstop.
                    _log.error(
                        "worker ignored terminate; killing it",
                        extra={"data": {"pid": proc.pid}},
                    )
                    proc.kill()
                    proc.join(timeout=5.0)
        # Wake the receiver; its last pass accepts whatever the reaped
        # workers left in the pipe, then the thread ends.
        self._wake_writer.send_bytes(b"\0")
        self._receiver.join(timeout=5.0)
        if self._receiver.is_alive():
            _log.error("receiver thread did not stop; abandoning it")
        for task_queue in self._task_queues:
            task_queue.close()
            task_queue.cancel_join_thread()
        self._result_queue.close()
        self._wake_reader.close()
        self._wake_writer.close()
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        _log.info(
            "serving pool stopped",
            extra={"data": {
                "completed": self.stats.completed,
                "shed": self.stats.shed,
                "expired": self.stats.expired,
                "worker_deaths": self.stats.worker_deaths,
            }},
        )
        self._raise_if_receiver_failed()

    def close(self, timeout: float = 20.0) -> None:
        """Graceful-shutdown alias for :meth:`stop` (idempotent)."""
        self.stop(timeout=timeout)

    # -- fleet observability -----------------------------------------------

    def merged_snapshot(self) -> dict[str, dict]:
        """One fleet-wide metrics snapshot: the parent's ``repro.serve.*``
        metrics merged with the latest snapshot from every worker."""
        with self._lock:
            parent = get_registry().snapshot(prefix="repro.serve")
            # Replaced whole, never edited: safe to merge outside the lock.
            workers = list(self.worker_snapshots.values())
        return merge_snapshots([parent, *workers])

    def slow(self) -> dict:
        """The flight recorder's ``/slow`` payload, read under the pool
        lock so its stage table and its slowest-N list describe the same
        set of requests."""
        with self._lock:
            return self.flight.to_dict()

    def healthz(self) -> dict:
        """The aggregated health document behind ``/healthz``."""
        with self._lock:
            workers = []
            for shard in sorted(self._procs):
                proc = self._procs[shard]
                workers.append(
                    {
                        "shard": shard,
                        "alive": proc.is_alive(),
                        "pid": proc.pid,
                        "processed": self.worker_processed.get(shard, 0),
                        "queue_depth": self._depth(shard),
                        "inflight": self._inflight.get(shard, 0),
                    }
                )
            alive = all(w["alive"] for w in workers) if workers else False
            doc = {
                "status": "ok" if alive and self.stats.lost == 0 else "degraded",
                "strategy": self.strategy.name,
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "outstanding": len(self._outstanding),
                "duplicates": self.stats.duplicates,
                "worker_deaths": self.stats.worker_deaths,
                "journal_replayed": self.stats.journal_replayed,
                "declared_lost": self.stats.declared_lost,
                "shed": self.stats.shed,
                "expired": self.stats.expired,
                "peak_queue_depth": self.stats.peak_queue_depth,
                "admission": {
                    "max_queue_depth": self.config.max_queue_depth,
                    "policy": self.config.admission_policy,
                    "request_deadline_s": self.config.request_deadline_s,
                },
                "workers": workers,
            }
            if self.brownout is not None:
                doc["brownout"] = self.brownout.to_dict()
            return doc
