"""Fault tolerance for the KAMEL pipeline: stay up, degrade gracefully.

The paper sells KAMEL as a deployable *online* system, and its Section 6
hard call limit with the straight-line fallback is already a one-rung
degradation path.  This package generalizes that into a full resilience
layer, stdlib-only like the rest of the reproduction:

* :mod:`repro.resilience.deadline` — :class:`Deadline` time budgets
  threaded through ``Kamel.impute`` down to the model-call loops; an
  overrun raises :class:`repro.errors.DeadlineExceeded` and triggers
  fallback instead of a hang;
* :mod:`repro.resilience.ladder` — the explicit degradation ladder
  (full beam → reduced beam → counting model → linear), each segment's
  resolving rung recorded on its
  :class:`repro.core.result.SegmentOutcome`;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` and
  :class:`RetryPolicy` (jittered exponential backoff) guarding pyramid
  model lookup and masked-model inference; an open circuit
  short-circuits to the next rung;
* :mod:`repro.resilience.journal` — the streaming service's write-ahead
  :class:`StreamJournal` (crash → resume only unfinished work) and
  :class:`QuarantineStore` dead-letter file;
* :mod:`repro.resilience.validate` — typed rejection of malformed inputs
  (:class:`repro.errors.QuarantinedInputError`);
* :mod:`repro.resilience.chaos` — the seeded fault-injection harness
  (:class:`ChaosMonkey`) proving all of the above under test.

See ``docs/resilience.md`` for the ladder diagram, deadline semantics,
and file formats.
"""

from repro.resilience.breaker import (
    CircuitBreaker,
    GuardedModel,
    PipelineGuards,
    RetryPolicy,
)
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    InjectedFault,
    chaos_scope,
    install_grid_chaos,
    install_repository_chaos,
)
from repro.resilience.deadline import Deadline
from repro.resilience.journal import (
    QuarantineStore,
    StreamJournal,
    trajectory_from_payload,
    trajectory_to_payload,
)
from repro.resilience.ladder import (
    ALL_RUNGS,
    FALLBACK_REASONS,
    DegradationLadder,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_LINEAR,
    RUNG_REDUCED_BEAM,
)
from repro.resilience.validate import MAX_COORDINATE_M, validate_trajectory

__all__ = [
    "ALL_RUNGS",
    "FALLBACK_REASONS",
    "ChaosConfig",
    "ChaosMonkey",
    "CircuitBreaker",
    "Deadline",
    "DegradationLadder",
    "GuardedModel",
    "InjectedCrash",
    "InjectedFault",
    "MAX_COORDINATE_M",
    "PipelineGuards",
    "QuarantineStore",
    "RetryPolicy",
    "RUNG_COUNTING",
    "RUNG_FULL",
    "RUNG_LINEAR",
    "RUNG_REDUCED_BEAM",
    "StreamJournal",
    "chaos_scope",
    "install_grid_chaos",
    "install_repository_chaos",
    "trajectory_from_payload",
    "trajectory_to_payload",
    "validate_trajectory",
]
