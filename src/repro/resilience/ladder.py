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
reduced   beam search at :data:`DEGRADED_BEAM_SIZE` — same model, a
          fraction of the cost, used when the full search failed
          or the deadline is tightening
counting  greedy iterative imputation on the global counting
          fallback model — serves when the repository model fails
          or is missing (the PLMTrajRec concern: stay
          usable when the heavy model path is down); always
          present, since every fit builds that model
linear    straight-line interpolation — never fails, the paper's
          "failure" outcome
========  =====================================================

:func:`rungs_for` names a system's rungs; :func:`allows` applies a
ladder cap to them — the serving tier's deadline cap, or a caller's
``max_rung``. A segment whose every rung above ``linear`` was skipped by
the cap records the fallback reason ``"brownout"`` (the name is kept
stable for the counters and reports that read it).

Every segment records the rung that resolved it on its
:class:`repro.core.result.SegmentOutcome`; only the ``linear`` rung
counts as a *failure* (the paper's metric), while anything below
``full`` counts as *degraded* — two distinct rates, both exported.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import instrument as obs

__all__ = [
    "RUNG_FULL",
    "RUNG_REDUCED_BEAM",
    "RUNG_COUNTING",
    "RUNG_LINEAR",
    "ALL_RUNGS",
    "FALLBACK_REASONS",
    "DEGRADED_BEAM_SIZE",
    "DEGRADED_MAX_MODEL_CALLS",
    "rungs_for",
    "allows",
    "record",
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
    "rung_error",
    "brownout",
)
"""Every ``SegmentOutcome.fallback_reason`` a segment can record — why it
left the rung above — each counted as
``repro.kamel.fallback.<reason>_total`` when the segment ends ``linear``.
``"brownout"`` means a ladder cap (the deadline cap or a caller's
``max_rung``) skipped the rung."""

DEGRADED_BEAM_SIZE = 3
"""Beam width of the reduced-beam rung (capped by the configured width)."""
DEGRADED_MAX_MODEL_CALLS = 200
"""Model-call budget of the reduced-beam and counting rungs (capped by
``KamelConfig.max_model_calls``)."""


def rungs_for(config) -> tuple[str, ...]:
    """The rungs a segment may descend under a
    :class:`repro.core.config.KamelConfig`, top to bottom.

    The reduced-beam rung only exists for the beam imputer (halving an
    iterative search saves nothing); the counting rung and ``linear`` are
    always there, ``linear`` last.
    """
    if config.imputer == "beam" and config.use_multipoint:
        return (RUNG_FULL, RUNG_REDUCED_BEAM, RUNG_COUNTING, RUNG_LINEAR)
    return (RUNG_FULL, RUNG_COUNTING, RUNG_LINEAR)


def allows(rung: str, cap: Optional[str]) -> bool:
    """Whether ``rung`` may run under a ladder cap.

    ``cap`` names the *most expensive* rung still permitted (``None``
    means uncapped).  Rungs above the cap are skipped; ``linear`` is
    always allowed — the ladder must keep its floor.
    """
    if cap is None or rung == RUNG_LINEAR:
        return True
    return ALL_RUNGS.index(rung) >= ALL_RUNGS.index(cap)


def record(rung: str) -> None:
    """Count one segment resolved at ``rung``."""
    obs.count(f"repro.kamel.rung.{rung}_total")
