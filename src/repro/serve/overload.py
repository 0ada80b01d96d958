"""Overload protection for the sharded serving tier.

Peak throughput does not decide availability — overload behavior does.
Admission is one rule in :meth:`repro.serve.ledger.Ledger.submit`: a
shard holding ``max_queue_depth`` outstanding requests sheds the
newcomer as a typed ``OverloadError`` result — accounted, never lost.
This module holds the other pool-side piece, **brownout control**:
:class:`BrownoutController`, a hysteresis state machine watching queue
depth.  Under sustained pressure it steps every
shard down the degradation ladder (full beam → reduced beam →
counting); when pressure clears it steps back up.  Serving *worse*
answers beats serving *no* answers, and the ladder already knows how to
be worse gracefully.

The controller is deliberately process-local and clock-injectable: the
pool evaluates it inline (no extra thread), workers learn the current
level through a shared ``multiprocessing.Value`` and translate it to a
ladder cap via :func:`rung_cap_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, Optional

from repro.obs import instrument as obs
from repro.obs.logging import get_logger
from repro.resilience.ladder import RUNG_COUNTING, RUNG_REDUCED_BEAM

__all__ = [
    "LEVEL_RUNGS",
    "rung_cap_for",
    "BrownoutConfig",
    "BrownoutController",
]

_log = get_logger("serve.overload")

LEVEL_RUNGS: tuple[Optional[str], ...] = (None, RUNG_REDUCED_BEAM, RUNG_COUNTING)
"""Brownout level -> ladder cap: 0 uncapped, 1 reduced beam, 2 counting."""


def rung_cap_for(level: int) -> Optional[str]:
    """The ladder cap a brownout ``level`` imposes (clamped to the map)."""
    if level <= 0:
        return None
    return LEVEL_RUNGS[min(level, len(LEVEL_RUNGS) - 1)]


@dataclass(frozen=True)
class BrownoutConfig:
    """When and how fast the pool steps shards down the ladder."""

    high_depth: int = 8
    """Step *down* when the deepest shard's outstanding work reaches this."""
    low_depth: int = 1
    """Step *up* only when every shard's outstanding work is at or below this."""
    step_down_after: int = 2
    """Consecutive over-threshold evaluations before stepping down."""
    step_up_after: int = 4
    """Consecutive under-threshold evaluations before stepping up —
    deliberately slower than the way down (classic hysteresis: flapping
    between levels is worse than briefly staying degraded)."""
    interval_s: float = 0.25
    """Minimum seconds between evaluations (the pool ticks opportunistically)."""
    max_level: int = 2
    """Deepest level the controller may reach (2 = counting cap)."""

    def __post_init__(self) -> None:
        if self.high_depth < 1:
            raise ValueError(f"high_depth must be >= 1, got {self.high_depth!r}")
        if not 0 <= self.low_depth < self.high_depth:
            raise ValueError(
                "low_depth must satisfy 0 <= low_depth < high_depth, got "
                f"{self.low_depth!r} vs {self.high_depth!r}"
            )
        if self.step_down_after < 1 or self.step_up_after < 1:
            raise ValueError("step_down_after and step_up_after must be >= 1")
        if not 1 <= self.max_level <= len(LEVEL_RUNGS) - 1:
            raise ValueError(f"max_level must be 1..{len(LEVEL_RUNGS) - 1}")
        if self.interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {self.interval_s!r}")


@dataclass
class BrownoutTransition:
    """One recorded level change (for /healthz)."""

    at_s: float
    from_level: int
    to_level: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "at_s": round(self.at_s, 3),
            "from": self.from_level,
            "to": self.to_level,
            "reason": self.reason,
        }


@dataclass
class BrownoutController:
    """Hysteresis state machine: queue depth in, ladder level out.

    ``evaluate(depth)`` is called opportunistically by
    the pool; it rate-limits itself to ``config.interval_s`` and returns
    the new level when a step happened (``None`` otherwise).  The level
    only moves one step per evaluation, in either direction.
    """

    config: BrownoutConfig = field(default_factory=BrownoutConfig)
    clock: Callable[[], float] = monotonic

    def __post_init__(self) -> None:
        self.level = 0
        self.transitions: list[BrownoutTransition] = []
        self._over = 0
        self._under = 0
        self._last_eval: Optional[float] = None
        self._started = self.clock()

    # -- signals -----------------------------------------------------------

    def evaluate(self, depth: int) -> Optional[int]:
        """Feed one depth sample (the deepest shard's outstanding work);
        returns the new level on a step."""
        now = self.clock()
        if self._last_eval is not None and now - self._last_eval < self.config.interval_s:
            return None
        self._last_eval = now
        if depth >= self.config.high_depth:
            self._over += 1
            self._under = 0
            if self._over >= self.config.step_down_after and self.level < self.config.max_level:
                return self._step(self.level + 1, now, "pressure")
        elif depth <= self.config.low_depth:
            self._under += 1
            self._over = 0
            if self._under >= self.config.step_up_after and self.level > 0:
                return self._step(self.level - 1, now, "recovered")
        else:
            # The dead band between low and high: hold the level, reset
            # both streaks so a step needs *consecutive* clear signals.
            self._over = 0
            self._under = 0
        return None

    def _step(self, to_level: int, now: float, reason: str) -> int:
        transition = BrownoutTransition(
            at_s=now - self._started,
            from_level=self.level,
            to_level=to_level,
            reason=reason,
        )
        self.transitions.append(transition)
        self.level = to_level
        self._over = 0
        self._under = 0
        obs.gauge("repro.serve.brownout_level").set(float(to_level))
        obs.count("repro.serve.brownout_steps_total")
        log = _log.warning if to_level > transition.from_level else _log.info
        log(
            "brownout level changed",
            extra={"data": transition.to_dict()},
        )
        return to_level

    # -- reporting ---------------------------------------------------------

    @property
    def cap(self) -> Optional[str]:
        """The ladder cap the current level imposes."""
        return rung_cap_for(self.level)

    def completed_cycle(self) -> bool:
        """Whether the controller stepped down and fully recovered to 0."""
        return (
            any(t.to_level > t.from_level for t in self.transitions)
            and self.level == 0
        )

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "cap": self.cap,
            "transitions": [t.to_dict() for t in self.transitions],
            "completed_cycle": self.completed_cycle(),
        }
