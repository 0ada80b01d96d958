"""The sharded serving pool: router, worker lifecycle, result collection.

:class:`ServingPool` is the parent-side half of ``repro.serve``. It
spawns one worker process per shard (``multiprocessing`` ``spawn``
context — no inherited state, same behavior everywhere), routes each
submitted trajectory to the shard a hash of its root cell names
(:func:`stable_shard`), and collects results from a shared queue.

Delivery semantics are **at-least-once from workers, exactly-once to the
caller**: a worker journals each task and may re-send results after a
crash-and-replay, and the pool's :class:`~repro.serve.ledger.Ledger`
deduplicates by trajectory id. A worker
that dies (detected via ``Process.is_alive`` on the receiver's tick) is
replaced by a new incarnation on the *same* task queue with
``recover=True``, so it first replays its shard journal — the
failure-handling story of the single-process service, lifted to a fleet.

Results are accepted **when they arrive**, not when the client next
calls in: one pool-owned receiver thread (``start()`` to ``stop()``)
blocks on the result pipe and handles every message under the pool lock
it shares with ``submit``; ``drain()`` and ``stop()`` sleep on that
lock's condition. Worker liveness runs on the receiver too, so a dead
worker is revived and the telemetry stays current while the client is
idle (docs/serving.md, "Threading model").

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
``serve.result_transit`` spans, and keeps the merged tree on the
request's flight record (``record.roots``): the slowest requests' trees
are what ``/slow`` serves and ``kamel trace --from`` exports, one lane
per shard.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import pathlib
import struct
import threading
import time
from multiprocessing.connection import wait as wait_readable
from typing import Callable, Iterator, Optional, Union

from repro.core.tokenization import make_grid
from repro.errors import ConfigError, PoolReceiverError
from repro.geo import Trajectory
from repro.grid.base import Cell
from repro.io.serialize import load_config
from repro.obs import instrument as obs
from repro.obs.flight import FlightRecord, FlightRecorder, stage_breakdown
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, merge_snapshots
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import Span, clock_offset, new_trace_id
from repro.serve.aggregate import pool_routes
from repro.serve.ledger import OUTSTANDING, Ledger, PoolStats, Submission
from repro.serve.protocol import ServeConfig, TaskEnvelope, WorkerSpec
from repro.serve.worker import worker_main

__all__ = ["PoolStats", "ServeConfig", "ServingPool", "stable_shard"]

_log = get_logger("serve.pool")

MAX_REVIVES_PER_SHARD = 3
"""Backstop against a poisoned shard crash-looping: after this many
respawns, the shard is left dead and drain() reports its work lost."""

DRAIN_TIMEOUT_S = 300.0
"""Default bound on one drain() call — the backstop against a lost task
wedging the pool forever."""

RECEIVER_TICK_S = 0.25
"""How often the receiver thread, traffic or not, wakes to check worker
liveness — how long a dead worker can go unnoticed, and the wake-up
rate an idle pool costs."""


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


def stable_shard(cell: Cell, num_partitions: int) -> int:
    """Deterministic shard for a grid cell: BLAKE2b over its packed bytes.

    The routing seed (the constant 0) and the cell's two signed integer
    coordinates are serialized with ``struct.pack`` (fixed little-endian
    layout) — the result depends only on those bytes, so the parent
    router, a respawned worker replaying its journal, and a fresh
    interpreter under any ``PYTHONHASHSEED`` agree. Builtin ``hash()``
    is never used: its string hashing is salted per process.
    """
    data = struct.pack("<q2q", 0, int(cell[0]), int(cell[1]))
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_partitions


class ServingPool:
    """N worker processes behind a deterministic spatial router."""

    def __init__(
        self,
        model_dir: Union[str, pathlib.Path],
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.model_dir = str(model_dir)
        self.config = config or ServeConfig()
        # The router needs the grid only, read from the saved system's
        # config — no model file is parsed in the parent. A directory no
        # worker could load fails here, before any process starts.
        saved = load_config(model_dir)
        self._grid = make_grid(saved.grid_type, saved.cell_edge_m)
        self.ledger = Ledger(self.config.workers, self.config.max_queue_depth)
        self.stats = self.ledger.stats
        self.worker_processed = self.ledger.processed
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
        self._started = False
        self._stopping = False
        # One lock for all pool state: the receiver thread holds it while
        # it handles messages, callers while they submit or read; waiters
        # (drain, stop) sleep on its condition, which
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

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServingPool":
        if self._started:
            return self
        self._result_queue = _SyncQueue(self._ctx)
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
                "model_dir": self.model_dir,
            }},
        )
        return self

    def _spawn(self, shard: int, recover: bool) -> None:
        self._incarnations += 1
        spec = WorkerSpec(
            worker_id=self._incarnations,
            shard=shard,
            model_dir=self.model_dir,
            recover=recover,
            config=self.config,
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(spec, self._task_queues[shard], self._result_queue),
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

    def shard_for(self, trajectory: Trajectory) -> int:
        """The shard that owns ``trajectory``: a hash of its root cell,
        the grid cell of its first point, so trips starting in one cell
        always meet the same worker's model cache. An empty trajectory
        goes to shard 0."""
        if len(trajectory) == 0:
            return 0
        cell = self._grid.cell_of(trajectory.points[0])
        return stable_shard(cell, self.config.workers)

    def submit(self, trajectory: Trajectory) -> int:
        """Route one trajectory to its shard; returns the shard index.

        The task goes out as an envelope carrying a fresh trace id, the
        submit wall clock, and (with ``request_deadline_s`` set) the
        absolute deadline, so the worker can join the request's trace,
        split queue wait from processing, and drop tasks that expired in
        the queue.

        With ``max_queue_depth`` set, a newcomer to a full shard is shed:
        it still returns its shard, and lands in ``results`` as a typed
        ``OverloadError`` entry instead of being queued (never silently
        dropped). An id whose earlier submission is still outstanding is
        refused with :class:`~repro.errors.ConfigError`.
        """
        if not self._started:
            raise ConfigError("pool not started (use start() or a with-block)")
        with self._lock:
            self._raise_if_receiver_failed()
            shard = self.shard_for(trajectory)
            admitted = self.ledger.submit(trajectory.traj_id, shard)
            if admitted is None:
                return shard
            submit_epoch = admitted.submit_epoch
            budget_s = self.config.request_deadline_s
            self._task_queues[shard].put(
                TaskEnvelope(
                    trajectory, new_trace_id(), submit_epoch,
                    deadline_epoch=(
                        None if budget_s is None else submit_epoch + budget_s
                    ),
                    deadline_budget_s=budget_s,
                )
            )
            return shard

    @property
    def outstanding(self) -> int:
        return self.ledger.outstanding

    @property
    def results(self) -> dict[str, dict]:
        """``traj_id -> result message`` so far (a copy, read under the lock)."""
        with self._lock:
            return self.ledger.results()

    def drain(self, timeout: Optional[float] = None) -> dict[str, dict]:
        """Wait until every submitted trajectory has a result (or timeout).

        Returns a copy of the accumulated ``traj_id -> result message``
        map. The receiver thread does the accepting (and revives dead
        shards, or writes their work off) whether or not anyone waits
        here; on timeout this logs the unaccounted ids and returns what
        arrived — ``stats.lost`` then says how many never came back.
        """
        if timeout is None:
            timeout = DRAIN_TIMEOUT_S
        with self._lock:
            if not self._wait_for(lambda: not self.ledger.outstanding, timeout):
                _log.error(
                    "drain timed out with unaccounted trajectories",
                    extra={"data": {
                        "outstanding": self.ledger.outstanding,
                        "ids": sorted(self.ledger.ids(OUTSTANDING))[:10],
                    }},
                )
            return self.ledger.results()

    def process_all(
        self, trajectories, timeout: Optional[float] = None
    ) -> dict[str, dict]:
        """Submit a batch and drain it (the CLI convenience)."""
        for trajectory in trajectories:
            self.submit(trajectory)
        return self.drain(timeout=timeout)

    # -- message handling --------------------------------------------------

    def _receive(self) -> None:
        """The receiver thread: accept every worker message as it
        arrives, check worker liveness every ``RECEIVER_TICK_S``, and
        wake whoever sleeps on the pool condition.

        Each wake-up — a batch of messages, or the tick on an idle pool
        — handles everything already readable in one lock hold. A
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
        elif kind in ("metrics", "bye"):
            self.worker_snapshots[message["shard"]] = message["snapshot"]
            if kind == "bye":
                self._byes.add(message["shard"])
                self.worker_lru[message["shard"]] = message["lru"]

    # -- tail-latency attribution -------------------------------------------

    def _handle_result(self, message: dict) -> None:
        """Hand a result to the ledger; for a request settled in time,
        derive its stage breakdown, feed the flight recorder, and (tracing
        on) merge the shipped span tree into the record's ``roots``."""
        handle_epoch = time.time()
        pending = self.ledger.deliver(message)
        # Expired tasks are excluded from the latency histogram: the
        # accepted-request p50/p99 is the SLA signal, and a deadline miss
        # is already counted on its own metric. So is a straggler for
        # written-off work: its shard was retired.
        if pending is None or pending.state != OUTSTANDING or message.get("expired"):
            return
        latency_s = time.perf_counter() - pending.submitted_pc
        obs.observe("repro.serve.latency_seconds", latency_s)
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
        self.flight.record(record)

    def _request_tree(
        self,
        record: FlightRecord,
        pending: Submission,
        roots: list[Span],
        process_s: float,
        start_epoch: float,
        handle_epoch: float,
    ) -> Span:
        """Graft the worker's (rebased) span trees under one synthetic
        ``serve.request`` root spanning submit-to-result, with synthetic
        ``serve.queue_wait`` / ``serve.result_transit`` brackets. The
        whole tree lands on one lane per shard in an exported trace."""
        lane = pending.shard + 1
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
                self.ledger.write_off(shard)
                continue
            proc.join(timeout=1.0)
            self.stats.worker_deaths += 1
            obs.count("repro.serve.worker_deaths_total")
            _log.warning(
                "worker died; respawning its shard",
                extra={"data": {
                    "shard": shard,
                    "exitcode": proc.exitcode,
                }},
            )
            revives = self._revives.get(shard, 0)
            if not self._stopping and revives < MAX_REVIVES_PER_SHARD:
                # Same task queue (undrained work survives), recover=True
                # (the replacement replays the shard journal first).
                self._revives[shard] = revives + 1
                self._spawn(shard, recover=True)
            else:
                self._byes.add(shard)
                self.ledger.write_off(shard)

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
                        "queue_depth": self.ledger.depths[shard],
                    }
                )
            alive = all(w["alive"] for w in workers) if workers else False
            # In-flight work is not a fault: only a dead worker or work
            # written off makes the pool degraded.
            healthy = alive and self.stats.declared_lost == 0
            return {
                "status": "ok" if healthy else "degraded",
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "outstanding": self.ledger.outstanding,
                "duplicates": self.stats.duplicates,
                "worker_deaths": self.stats.worker_deaths,
                "journal_replayed": self.stats.journal_replayed,
                "declared_lost": self.stats.declared_lost,
                "shed": self.stats.shed,
                "expired": self.stats.expired,
                "peak_queue_depth": self.stats.peak_queue_depth,
                "admission": {
                    "max_queue_depth": self.config.max_queue_depth,
                    "request_deadline_s": self.config.request_deadline_s,
                },
                "workers": workers,
            }
