"""The imputer interface and its result types (shared with baselines)."""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.geo import Trajectory


@dataclass(frozen=True)
class SegmentOutcome:
    """What happened to one sparse-trajectory segment (gap)."""

    start_index: int
    """Index of the segment's first endpoint in the sparse trajectory."""
    failed: bool
    """True when the segment fell back to a straight line (paper's
    "failure" definition in Section 8's metrics)."""
    model_calls: int = 0
    """Model queries asked across every ladder rung tried — what the call
    budget counts, however the queries were executed (batched rounds and
    candidate-memo hits included)."""
    imputed_points: int = 0
    rung: Optional[str] = None
    """Which degradation-ladder rung resolved this segment (see
    :mod:`repro.resilience.ladder`): ``"full"``, ``"reduced_beam"``,
    ``"counting"``, or ``"linear"``. Defaults from ``failed`` for
    constructors that predate the ladder (baselines): failed segments are
    ``"linear"``, successful ones ``"full"``."""
    fallback_reason: Optional[str] = None
    """Why the segment left the top rung, one of
    :data:`repro.resilience.ladder.FALLBACK_REASONS`; ``None`` at the top
    rung."""

    def __post_init__(self) -> None:
        if self.rung is None:
            object.__setattr__(self, "rung", "linear" if self.failed else "full")

    @property
    def degraded(self) -> bool:
        """Resolved below the top ladder rung (includes linear failures)."""
        return self.rung != "full"


@dataclass(frozen=True)
class ImputationResult:
    """A dense trajectory plus per-segment bookkeeping."""

    trajectory: Trajectory
    segments: tuple[SegmentOutcome, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_failed(self) -> int:
        return sum(1 for s in self.segments if s.failed)

    @property
    def num_degraded(self) -> int:
        """Segments resolved below the top ladder rung (incl. failures)."""
        return sum(1 for s in self.segments if s.degraded)

    @property
    def failure_rate(self) -> float:
        """Fraction of segments imputed by a straight line."""
        if not self.segments:
            return 0.0
        return self.num_failed / len(self.segments)

    @property
    def degraded_rate(self) -> float:
        """Fraction of segments resolved below the top ladder rung."""
        if not self.segments:
            return 0.0
        return self.num_degraded / len(self.segments)

    @property
    def rung_counts(self) -> dict[str, int]:
        """How many segments each ladder rung resolved."""
        return dict(Counter(s.rung for s in self.segments if s.rung))

    @property
    def total_model_calls(self) -> int:
        return sum(s.model_calls for s in self.segments)


class Imputer(abc.ABC):
    """Anything that densifies sparse trajectories.

    Implemented by :class:`repro.core.kamel.Kamel` and every baseline in
    :mod:`repro.baselines`, so the evaluation harness treats them
    uniformly.
    """

    @abc.abstractmethod
    def impute(self, trajectory: Trajectory) -> ImputationResult:
        """Densify one sparse trajectory."""

    def impute_batch(self, trajectories: Sequence[Trajectory]) -> list[ImputationResult]:
        """Densify a batch (offline bulk mode)."""
        return [self.impute(t) for t in trajectories]

    @property
    def name(self) -> str:
        """Display name used in experiment tables."""
        return type(self).__name__
