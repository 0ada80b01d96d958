"""Time budgets for the imputation pipeline.

A :class:`Deadline` is a wall-clock budget threaded through
``Kamel.impute`` → ``core.imputation`` → the masked-model calls.  The
search loops call :meth:`Deadline.check` between model calls; an expired
budget raises :class:`repro.errors.DeadlineExceeded`, which the
degradation ladder converts into a straight-line fallback instead of a
hung request.  The paper's hard model-call limit bounds *work*; deadlines
bound *time* — the unit an online SLA is actually written in.

Deadlines are immutable once started and take an injectable monotonic
clock so tests can drive them deterministically.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import DeadlineExceeded

__all__ = ["Deadline"]

Clock = Callable[[], float]


class Deadline:
    """A monotonic-clock budget: "this work must finish by ``expires_at``".

    ``Deadline.after(0.25)`` starts a 250 ms budget now; one whose
    ``expires_at`` is infinite never expires.
    """

    __slots__ = ("expires_at", "budget_s", "_clock")

    def __init__(
        self,
        expires_at: float,
        budget_s: float = math.inf,
        clock: Clock = time.monotonic,
    ) -> None:
        self.expires_at = expires_at
        self.budget_s = budget_s
        self._clock = clock

    # -- constructors ------------------------------------------------------

    @classmethod
    def after(cls, seconds: float, clock: Clock = time.monotonic) -> "Deadline":
        """A budget of ``seconds`` starting now."""
        if seconds <= 0:
            raise ValueError(f"deadline budget must be positive, got {seconds!r}")
        return cls(clock() + seconds, seconds, clock)

    # -- interrogation -----------------------------------------------------

    @property
    def is_unlimited(self) -> bool:
        return math.isinf(self.expires_at)

    def remaining(self) -> float:
        """Seconds left (negative once expired, ``inf`` when unlimited)."""
        if self.is_unlimited:
            return math.inf
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return not self.is_unlimited and self._clock() >= self.expires_at

    def overrun_s(self) -> float:
        """How far past the deadline we are (0.0 while still inside it)."""
        return max(0.0, -self.remaining()) if not self.is_unlimited else 0.0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out.

        Called between units of work (model calls, beam rounds) — never
        inside one — so an overrun is bounded by the duration of a single
        unit, not by the whole search.
        """
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget_s:.3g}s deadline",
                overrun_s=self.overrun_s(),
            )

    def __repr__(self) -> str:
        if self.is_unlimited:
            return "Deadline(unlimited)"
        return f"Deadline(budget={self.budget_s:.3g}s, remaining={self.remaining():.3g}s)"
