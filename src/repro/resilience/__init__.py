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
* :mod:`repro.resilience.journal` — the serve worker's write-ahead
  :class:`StreamJournal` (crash → replay only unfinished work) and the
  :class:`QuarantineStore` dead-letter file;
* :mod:`repro.resilience.validate` — typed rejection of malformed inputs
  (:class:`repro.errors.QuarantinedInputError`);
* :mod:`repro.resilience.chaos` — the seeded fault-injection harness
  (:class:`ChaosMonkey`) proving all of the above under test, and each
  system's :class:`PipelineGuards`: the chaos slot at pyramid model
  lookup and masked-model inference, where an injected fault is a rung
  error that sends the segment one rung down.

See ``docs/resilience.md`` for the ladder diagram, deadline semantics,
and file formats.
"""

from repro.resilience.chaos import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    InjectedFault,
    PipelineGuards,
    chaos_scope,
    install_grid_chaos,
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
    "Deadline",
    "InjectedCrash",
    "InjectedFault",
    "MAX_COORDINATE_M",
    "PipelineGuards",
    "QuarantineStore",
    "RUNG_COUNTING",
    "RUNG_FULL",
    "RUNG_LINEAR",
    "RUNG_REDUCED_BEAM",
    "StreamJournal",
    "chaos_scope",
    "install_grid_chaos",
    "trajectory_from_payload",
    "trajectory_to_payload",
    "validate_trajectory",
]
