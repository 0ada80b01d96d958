"""The graceful-degradation ladder (formalizing the paper's fallback).

Section 6 of the paper already contains a one-rung degradation path: a
gap whose search exhausts the hard model-call limit is filled with a
straight line.  This module generalizes that into an explicit, ordered
policy the whole pipeline shares:

========  =====================================================
rung      what serves the segment
========  =====================================================
full      the configured imputer (beam search, full width) on the
          pyramid-repository model — the paper's happy path
reduced   beam search at ``degraded_beam_size`` — same model, a
          fraction of the cost, used when the full search failed
          or the deadline is tightening
counting  greedy iterative imputation on the global counting
          fallback model — survives an open inference circuit or a
          missing repository model (the PLMTrajRec concern: stay
          usable when the heavy model path is down)
linear    straight-line interpolation — never fails, the paper's
          "failure" outcome
========  =====================================================

Every segment records the rung that resolved it on its
:class:`repro.core.result.SegmentOutcome`; only the ``linear`` rung
counts as a *failure* (the paper's metric), while anything below
``full`` counts as *degraded* — two distinct rates, both exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs import instrument as obs

__all__ = [
    "RUNG_FULL",
    "RUNG_REDUCED_BEAM",
    "RUNG_COUNTING",
    "RUNG_LINEAR",
    "ALL_RUNGS",
    "FALLBACK_REASONS",
    "DegradationLadder",
]

RUNG_FULL = "full"
RUNG_REDUCED_BEAM = "reduced_beam"
RUNG_COUNTING = "counting"
RUNG_LINEAR = "linear"

ALL_RUNGS = (RUNG_FULL, RUNG_REDUCED_BEAM, RUNG_COUNTING, RUNG_LINEAR)
"""Top-to-bottom order; a segment only ever moves downward."""

FALLBACK_REASONS = (
    "endpoint_unseen",
    "no_model",
    "search_failed",
    "deadline",
    "circuit_open",
    "rung_error",
    "brownout",
)
"""Every ``SegmentOutcome.fallback_reason`` a segment can record — why it
left the rung above — each counted as
``repro.kamel.fallback.<reason>_total`` when the segment ends ``linear``."""


@dataclass(frozen=True)
class DegradationLadder:
    """The ordered rungs a segment may descend, ending in ``linear``.

    Built once per system from its config: the reduced-beam rung only
    exists for the beam imputer (halving an iterative search saves
    nothing), and the counting rung only when the global fallback model
    is enabled.  ``linear`` is always last and always present.
    """

    rungs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rungs or self.rungs[-1] != RUNG_LINEAR:
            raise ValueError("a degradation ladder must end in the linear rung")
        unknown = set(self.rungs) - set(ALL_RUNGS)
        if unknown:
            raise ValueError(f"unknown ladder rungs: {sorted(unknown)}")
        if list(self.rungs) != [r for r in ALL_RUNGS if r in self.rungs]:
            raise ValueError(f"ladder rungs out of order: {self.rungs}")

    @classmethod
    def for_config(cls, config) -> "DegradationLadder":
        """The ladder implied by a :class:`repro.core.config.KamelConfig`."""
        rungs = [RUNG_FULL]
        if config.imputer == "beam" and config.use_multipoint:
            rungs.append(RUNG_REDUCED_BEAM)
        if config.enable_fallback_model:
            rungs.append(RUNG_COUNTING)
        rungs.append(RUNG_LINEAR)
        return cls(tuple(rungs))

    def below(self, rung: str) -> tuple[str, ...]:
        """The rungs strictly below ``rung`` (what's left to try)."""
        return self.rungs[self.rungs.index(rung) + 1 :]

    @staticmethod
    def allows(rung: str, cap: Optional[str]) -> bool:
        """Whether ``rung`` may run under a brownout cap.

        ``cap`` names the *most expensive* rung still permitted (``None``
        means uncapped).  Rungs above the cap are skipped; ``linear`` is
        always allowed — the ladder must keep its floor.
        """
        if cap is None or rung == RUNG_LINEAR:
            return True
        return ALL_RUNGS.index(rung) >= ALL_RUNGS.index(cap)

    @staticmethod
    def tighter_cap(a: Optional[str], b: Optional[str]) -> Optional[str]:
        """The more restrictive (lower) of two rung caps; ``None`` = uncapped."""
        if a is None:
            return b
        if b is None:
            return a
        return a if ALL_RUNGS.index(a) >= ALL_RUNGS.index(b) else b

    @staticmethod
    def record(rung: str) -> None:
        """Count one segment resolved at ``rung``."""
        obs.count(f"repro.kamel.rung.{rung}_total")

    @staticmethod
    def is_failure(rung: str) -> bool:
        """The paper's failure definition: only the straight line counts."""
        return rung == RUNG_LINEAR

    @staticmethod
    def is_degraded(rung: str) -> bool:
        """Anything below the top rung, including linear."""
        return rung != RUNG_FULL

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self):
        return iter(self.rungs)
