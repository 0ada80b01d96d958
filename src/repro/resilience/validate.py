"""Input validation: decide early whether a trajectory is processable.

The grid tokenizer happily maps any *finite* coordinate to a cell, so the
failure mode of malformed input is not a clean exception — it is a NaN
propagating into cell indices, or a coordinate light-years off the grid
allocating an absurd ellipse of candidate cells.  This module front-loads
the check: :func:`validate_trajectory` raises a typed
:class:`repro.errors.QuarantinedInputError` with a machine-readable
``reason``, which the streaming service converts into a dead-letter
record instead of a dead stream.

Deliberately *not* rejected: negative timestamps (the time origin is
arbitrary), duplicate timestamps (a parked vehicle), and reversed
timestamps (constraints fall back to their geometric floor) — all are
degenerate-but-processable, and tests pin that they stay so.
"""

from __future__ import annotations

import math

from repro.errors import QuarantinedInputError
from repro.geo import Trajectory

__all__ = ["MAX_COORDINATE_M", "validate_trajectory"]

MAX_COORDINATE_M = 1e7
"""Coordinate magnitude bound (10 000 km — beyond any local planar frame).
Finite-but-absurd coordinates are "out of grid": the lattice is unbounded
mathematically, but cell indices past this point stop being meaningful."""


def validate_trajectory(trajectory: Trajectory) -> None:
    """Raise :class:`QuarantinedInputError` if ``trajectory`` is malformed.

    Reasons: ``non_finite_coordinate``, ``coordinate_out_of_range``,
    ``non_finite_timestamp``.
    """
    for index, p in enumerate(trajectory.points):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise QuarantinedInputError(
                f"trajectory {trajectory.traj_id!r} point {index} has a "
                f"non-finite coordinate ({p.x!r}, {p.y!r})",
                reason="non_finite_coordinate",
            )
        if abs(p.x) > MAX_COORDINATE_M or abs(p.y) > MAX_COORDINATE_M:
            raise QuarantinedInputError(
                f"trajectory {trajectory.traj_id!r} point {index} is outside "
                f"the representable grid (|coord| > {MAX_COORDINATE_M:g} m)",
                reason="coordinate_out_of_range",
            )
        if p.t is not None and not math.isfinite(p.t):
            raise QuarantinedInputError(
                f"trajectory {trajectory.traj_id!r} point {index} has a "
                f"non-finite timestamp ({p.t!r})",
                reason="non_finite_timestamp",
            )
