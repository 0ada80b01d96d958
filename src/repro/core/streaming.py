"""The online imputation service (paper Section 2, "online mode").

:class:`StreamingImputationService` is the deployable wrapper around a
trained :class:`~repro.core.kamel.Kamel`: it validates every incoming
trajectory, cleans it (outlier removal, trip splitting), imputes each
resulting trip against the precomputed models, and keeps running
operational counters. Imputation never retrains — the paper's
scalability argument. Feeding processed trajectories back as training
data is the caller's offline batch: :meth:`Kamel.add_training`.

Every :meth:`process` call runs under its own trace id, stamped on all
spans and log lines it produces. The service serves no HTTP itself: a
caller who wants ``/metrics`` runs an
:class:`~repro.obs.server.ObservabilityServer` beside it.

Point :attr:`StreamingConfig.quarantine_path` at a file and inputs no
ladder rung can process (non-finite coordinates, absurd values) are
dead-lettered there with their reason instead of poisoning the stream.
The service keeps no journal: crash recovery belongs to the serving
worker (:mod:`repro.serve.worker`), which journals around each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.kamel import Kamel
from repro.core.result import ImputationResult
from repro.errors import NotFittedError, QuarantinedInputError
from repro.geo import Trajectory
from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.obs.tracing import span, trace_scope
from repro.preprocess import remove_outliers, split_by_time_gap
from repro.resilience.journal import QuarantineStore
from repro.resilience.validate import validate_trajectory

_log = get_logger("core.streaming")

MAX_SPEED_MPS = 60.0
"""Outlier gate for raw fixes: a point only reachable faster is dropped."""
TRIP_GAP_S = 600.0
"""Recording pauses longer than this split the input into trips."""


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

    @property
    def failure_rate(self) -> float:
        """Share of segments resolved by the *linear* ladder rung only —
        the paper's failure definition, and the ratio of the
        ``repro.kamel.segments_failed_total`` and ``segments_imputed_total``
        counters over the same segments."""
        if self.segments == 0:
            return 0.0
        return self.failed_segments / self.segments

    @property
    def degraded_rate(self) -> float:
        """Share of segments resolved below the *top* ladder rung
        (reduced beam, counting, or linear): ``segments_degraded_total``
        over ``segments_imputed_total``."""
        if self.segments == 0:
            return 0.0
        return self.degraded_segments / self.segments


@dataclass(frozen=True)
class StreamingConfig:
    """Where the service dead-letters what it cannot process."""

    quarantine_path: Optional[str] = None
    """Dead-letter file (JSONL) for inputs no ladder rung can process.
    None (default) logs and drops them instead."""


class StreamingImputationService:
    """Validate -> clean -> impute -> quarantine, one incoming trajectory
    at a time."""

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
        self.quarantine: Optional[QuarantineStore] = None
        if self.config.quarantine_path is not None:
            self.quarantine = QuarantineStore(self.config.quarantine_path)

    # -- the hot path -----------------------------------------------------

    def _clean(self, trajectory: Trajectory) -> list[Trajectory]:
        return split_by_time_gap(
            remove_outliers(trajectory, MAX_SPEED_MPS), TRIP_GAP_S
        )

    def process(
        self,
        trajectory: Trajectory,
        deadline=None,
        max_rung: Optional[str] = None,
    ) -> list[ImputationResult]:
        """Impute one incoming trajectory (possibly several trips).

        An input the pipeline cannot process
        (:class:`~repro.errors.QuarantinedInputError`) is dead-lettered
        and returns ``[]``; it never raises out of this method.

        ``deadline`` (a :class:`~repro.resilience.deadline.Deadline`)
        bounds the whole call — the serving tier propagates per-request
        deadlines here so a late request finishes on cheaper ladder
        rungs instead of missing entirely.  ``max_rung`` caps the top of
        the degradation ladder (the serving tier's deadline cap); both
        thread straight into :meth:`Kamel.impute`.

        The wall time recorded into ``StreamStats.processing_seconds`` and
        the ``repro.streaming.process_seconds`` histogram come from the
        same stopwatch, so the legacy fields and the registry agree. The
        whole call runs under one request trace id, inherited by the
        per-trip ``Kamel.impute`` scopes.
        """
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
        obs.count("repro.streaming.trajectories_in_total")
        obs.count("repro.streaming.points_in_total", len(trajectory))
        obs.count("repro.streaming.trips_out_total", len(results))
        obs.count(
            "repro.streaming.points_out_total",
            sum(len(r.trajectory) for r in results),
        )
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
