"""The online imputation service (paper Section 2, "online mode").

:class:`StreamingImputationService` is the deployable wrapper around a
trained :class:`~repro.core.kamel.Kamel`: it applies a cleaning chain to
every incoming trajectory (outlier removal, optional smoothing, trip
splitting), imputes each resulting trip against the precomputed models,
and keeps running operational counters. Imputation never retrains — the
paper's scalability argument — but fully processed trajectories can be
fed back as training data in periodic offline batches via
:meth:`enqueue_for_training` / :meth:`flush_training`.

Operationally the service can expose itself: set
:attr:`StreamingConfig.metrics_port` and it starts an
:class:`~repro.obs.server.ObservabilityServer` serving ``/metrics``
(Prometheus), ``/healthz``, and ``/spans``; set the ``alert_*``
thresholds and the rolling monitors fire WARNING logs when the windowed
failure rate, degraded rate, or processing latency worsens.
Every :meth:`process` call runs under its own trace id, stamped on all
spans and log lines it produces.

Durability: point :attr:`StreamingConfig.journal_path` at a file and
every input is journaled (write-ahead) before processing and marked done
after, so a crash mid-batch loses nothing — :meth:`recover` on the
restarted service reprocesses exactly the unfinished work. Point
:attr:`StreamingConfig.quarantine_path` at a file and inputs no ladder
rung can process (non-finite coordinates, absurd values) are
dead-lettered there with their reason instead of poisoning the stream.
The invariant the chaos suite asserts: every submitted trajectory is
processed, quarantined, or journal-pending — never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.core.kamel import Kamel
from repro.core.result import ImputationResult
from repro.errors import NotFittedError, QuarantinedInputError
from repro.geo import Trajectory
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.monitor import RollingMonitor
from repro.obs.server import ObservabilityServer
from repro.obs.tracing import span, trace_scope
from repro.resilience.journal import QuarantineStore, StreamJournal
from repro.resilience.validate import validate_trajectory

from repro.preprocess import KalmanSmoother, remove_outliers, split_by_time_gap

_log = get_logger("core.streaming")


@dataclass
class StreamStats:
    """Running counters over everything the service processed."""

    trajectories_in: int = 0
    trips_out: int = 0
    points_in: int = 0
    points_out: int = 0
    segments: int = 0
    failed_segments: int = 0
    degraded_segments: int = 0
    model_calls: int = 0
    processing_seconds: float = 0.0
    quarantined: int = 0
    journal_replayed: int = 0

    @property
    def failure_rate(self) -> float:
        """Share of segments resolved by the *linear* ladder rung only —
        the paper's failure definition, and the same numerator the
        windowed ``repro.kamel.failure_rate`` gauge uses (the cumulative
        and windowed views agree on what counts as a failure)."""
        if self.segments == 0:
            return 0.0
        return self.failed_segments / self.segments

    @property
    def degraded_rate(self) -> float:
        """Share of segments resolved below the *top* ladder rung
        (reduced beam, counting, or linear) — the cumulative counterpart
        of the windowed ``repro.kamel.degraded_rate`` gauge."""
        if self.segments == 0:
            return 0.0
        return self.degraded_segments / self.segments

    @property
    def densification_ratio(self) -> float:
        if self.points_in == 0:
            return 0.0
        return self.points_out / self.points_in

    @property
    def mean_latency_ms(self) -> float:
        if self.trips_out == 0:
            return 0.0
        return self.processing_seconds / self.trips_out * 1000.0


@dataclass(frozen=True)
class StreamingConfig:
    """What the ingest pipeline does before imputation."""

    max_speed_mps: float = 60.0
    """Outlier gate for raw fixes."""
    smooth: bool = False
    """Apply Kalman smoothing to each incoming trajectory."""
    trip_gap_s: float = 600.0
    """Recording pauses longer than this split the input into trips."""
    min_trip_points: int = 2
    training_batch_size: int = 50
    """`enqueue_for_training` triggers an offline batch at this size."""
    metrics_port: Optional[int] = None
    """Serve /metrics, /healthz, /spans on this localhost port (0 picks a
    free ephemeral port); None (default) starts no endpoint."""
    alert_failure_rate: Optional[float] = None
    """WARN when the windowed segment failure rate exceeds this."""
    alert_degraded_rate: Optional[float] = None
    """WARN when the windowed below-top-rung segment rate exceeds this."""
    alert_latency_s: Optional[float] = None
    """WARN when the windowed mean process() latency exceeds this (seconds)."""
    alert_min_observations: int = 20
    """Observations a rolling window needs before its alerts can fire."""
    journal_path: Optional[str] = None
    """Write-ahead journal file (JSONL). None (default) disables the
    journal; with it set, :meth:`StreamingImputationService.recover`
    resumes exactly the work a crash left unfinished."""
    journal_sync: bool = False
    """fsync the journal after every record (durable across power loss,
    measurably slower)."""
    quarantine_path: Optional[str] = None
    """Dead-letter file (JSONL) for inputs no ladder rung can process.
    None (default) logs and drops them instead."""


class StreamingImputationService:
    """Clean -> split -> impute, one incoming trajectory at a time."""

    def __init__(
        self,
        system: Kamel,
        config: Optional[StreamingConfig] = None,
    ) -> None:
        if not system.is_fitted:
            raise NotFittedError("the service needs a trained Kamel system")
        self.system = system
        self.config = config or StreamingConfig()
        self.stats = StreamStats()
        self._smoother = KalmanSmoother()
        self._training_queue: list[Trajectory] = []
        self.active_alerts: set[str] = set()
        self._wire_alerts()
        self.chaos = None  # Optional[repro.resilience.chaos.ChaosMonkey]
        self.journal: Optional[StreamJournal] = None
        if self.config.journal_path is not None:
            self.journal = StreamJournal(
                self.config.journal_path, sync=self.config.journal_sync
            )
        self.quarantine: Optional[QuarantineStore] = None
        if self.config.quarantine_path is not None:
            self.quarantine = QuarantineStore(self.config.quarantine_path)
        self.metrics_server: Optional[ObservabilityServer] = None
        if self.config.metrics_port is not None:
            self.metrics_server = ObservabilityServer(
                port=self.config.metrics_port
            ).start()

    # -- telemetry endpoint & alerts ---------------------------------------

    @property
    def metrics_url(self) -> Optional[str]:
        """Base URL of the running telemetry endpoint (None if disabled)."""
        if self.metrics_server is None:
            return None
        return self.metrics_server.url

    def close(self) -> None:
        """Stop the telemetry endpoint (idempotent; the service remains usable)."""
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None

    def __enter__(self) -> "StreamingImputationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _wire_alerts(self) -> None:
        """Attach the configured thresholds to the rolling monitors.

        Alerts are edge-triggered: one WARNING when a windowed value
        crosses its limit, one INFO when it recovers; ``active_alerts``
        holds the currently-breached monitor names so callers can shed
        load or stop enqueueing while degraded.
        """
        cfg = self.config
        hub = obs.monitors()
        pairs = []
        if cfg.alert_failure_rate is not None:
            pairs.append((hub.failure, cfg.alert_failure_rate))
        if cfg.alert_degraded_rate is not None:
            pairs.append((hub.degraded, cfg.alert_degraded_rate))
        if cfg.alert_latency_s is not None:
            pairs.append((hub.latency, cfg.alert_latency_s))
        for monitor, limit in pairs:
            monitor.add_threshold(
                limit,
                self._on_alert,
                min_count=cfg.alert_min_observations,
                on_clear=self._on_alert_cleared,
            )

    def _on_alert(self, monitor: RollingMonitor, value: float) -> None:
        self.active_alerts.add(monitor.name)
        obs.count("repro.streaming.alerts_total")
        _log.warning(
            "rolling monitor above threshold",
            extra={"data": {
                "monitor": monitor.name,
                "value": round(value, 6),
                "window": monitor.count,
            }},
        )

    def _on_alert_cleared(self, monitor: RollingMonitor, value: float) -> None:
        self.active_alerts.discard(monitor.name)
        _log.info(
            "rolling monitor recovered",
            extra={"data": {"monitor": monitor.name, "value": round(value, 6)}},
        )

    @property
    def degraded(self) -> bool:
        """Whether any configured rolling-monitor threshold is breached."""
        return bool(self.active_alerts)

    # -- the hot path -----------------------------------------------------

    def _clean(self, trajectory: Trajectory) -> list[Trajectory]:
        cfg = self.config
        cleaned = remove_outliers(trajectory, cfg.max_speed_mps)
        if cfg.smooth:
            cleaned = self._smoother.smooth(cleaned)
        return split_by_time_gap(cleaned, cfg.trip_gap_s, cfg.min_trip_points)

    def process(
        self,
        trajectory: Trajectory,
        deadline=None,
        max_rung: Optional[str] = None,
    ) -> list[ImputationResult]:
        """Impute one incoming trajectory (possibly several trips).

        Durability contract: with a journal configured, the input is
        journaled *before* any work and marked done *after* all of it —
        a crash anywhere in between leaves the entry pending for
        :meth:`recover`. An input the pipeline cannot process
        (:class:`~repro.errors.QuarantinedInputError`) is dead-lettered
        and returns ``[]``; it never raises out of this method, and it
        counts as done in the journal.

        ``deadline`` (a :class:`~repro.resilience.deadline.Deadline`)
        bounds the whole call — the serving tier propagates per-request
        deadlines here so a late request finishes on cheaper ladder
        rungs instead of missing entirely.  ``max_rung`` caps the top of
        the degradation ladder (brownout control); both thread straight
        into :meth:`Kamel.impute`.

        The wall time recorded into ``StreamStats.processing_seconds`` and
        the ``repro.streaming.process_seconds`` histogram come from the
        same stopwatch, so the legacy fields and the registry agree. The
        whole call runs under one request trace id, inherited by the
        per-trip ``Kamel.impute`` scopes.
        """
        if self.journal is not None:
            self.journal.begin(trajectory)
        if self.chaos is not None:
            # May raise InjectedCrash — deliberately *after* the journal
            # write, simulating death mid-processing: the entry stays
            # pending and recover() picks it up.
            self.chaos.on_process()
        with trace_scope():
            with span("streaming.process", points=len(trajectory)):
                with obs.stopwatch("repro.streaming.process_seconds") as sw:
                    self.stats.trajectories_in += 1
                    self.stats.points_in += len(trajectory)
                    results: list[ImputationResult] = []
                    try:
                        # Validate the raw input before cleaning: NaN/inf
                        # coordinates would silently confuse the outlier
                        # filter's distance math instead of failing typed.
                        validate_trajectory(trajectory)
                        for trip in self._clean(trajectory):
                            result = self.system.impute(
                                trip, deadline=deadline, max_rung=max_rung
                            )
                            results.append(result)
                            self.stats.trips_out += 1
                            self.stats.points_out += len(result.trajectory)
                            self.stats.segments += result.num_segments
                            self.stats.failed_segments += result.num_failed
                            self.stats.degraded_segments += result.num_degraded
                            self.stats.model_calls += result.total_model_calls
                    except QuarantinedInputError as exc:
                        self._quarantine(trajectory, exc.reason)
                        results = []
        self.stats.processing_seconds += sw.seconds
        obs.monitors().latency.observe(sw.seconds)
        obs.count("repro.streaming.trajectories_in_total")
        obs.count("repro.streaming.points_in_total", len(trajectory))
        obs.count("repro.streaming.trips_out_total", len(results))
        obs.count(
            "repro.streaming.points_out_total",
            sum(len(r.trajectory) for r in results),
        )
        if self.journal is not None:
            self.journal.done(trajectory.traj_id)
        return results

    def _quarantine(self, trajectory: Trajectory, reason: str) -> None:
        self.stats.quarantined += 1
        obs.count("repro.streaming.quarantined_total")
        if self.quarantine is not None:
            self.quarantine.add(trajectory, reason)
        else:
            _log.warning(
                "input dropped (no quarantine store configured)",
                extra={"data": {"trajectory": trajectory.traj_id, "reason": reason}},
            )

    # -- crash recovery ----------------------------------------------------

    def recover(self) -> list[ImputationResult]:
        """Reprocess the work a crash left unfinished (call before new
        traffic on a restarted service).

        Reads the write-ahead journal, replays every begun-but-not-done
        input through the normal :meth:`process` path (journaling,
        quarantine, and stats included), and returns the results in the
        original submission order. Imputation is deterministic, so a
        replayed input produces the same output the crashed process would
        have. No journal configured — nothing to do.
        """
        if self.journal is None:
            return []
        pending = self.journal.pending()
        if not pending:
            return []
        _log.info(
            "recovering unfinished work from the journal",
            extra={"data": {"pending": len(pending)}},
        )
        results: list[ImputationResult] = []
        for trajectory in pending:
            obs.count("repro.streaming.journal_replayed_total")
            self.stats.journal_replayed += 1
            results.extend(self.process(trajectory))
        return results

    def process_stream(
        self, trajectories: Iterable[Trajectory]
    ) -> Iterator[ImputationResult]:
        """Lazily process an endless feed."""
        for trajectory in trajectories:
            yield from self.process(trajectory)

    # -- offline enrichment ------------------------------------------------

    def enqueue_for_training(self, trajectory: Trajectory) -> bool:
        """Queue a (dense) trajectory for the next offline training batch.

        Returns True when the queue reached the batch size and was flushed
        into :meth:`repro.core.kamel.Kamel.add_training` — the paper's
        "scheduled as a background process for a batch of new
        trajectories".
        """
        self._training_queue.append(trajectory)
        if len(self._training_queue) >= self.config.training_batch_size:
            self.flush_training()
            return True
        return False

    def flush_training(self) -> int:
        """Run the queued offline batch now; returns its size."""
        batch, self._training_queue = self._training_queue, []
        if batch:
            self.system.add_training(batch)
            obs.count("repro.streaming.training_flushes_total")
            _log.info(
                "offline training batch flushed",
                extra={"data": {"batch_size": len(batch)}},
            )
        return len(batch)

    @property
    def pending_training(self) -> int:
        return len(self._training_queue)
