"""Linear interpolation: the paper's baseline imputer."""

from __future__ import annotations

from repro.core.result import ImputationResult, Imputer, SegmentOutcome
from repro.geo import Point, Trajectory, linear_interior


class LinearImputer(Imputer):
    """Fills every gap with evenly spaced points on a straight line.

    Per the paper's failure-rate definition — "an imputation technique
    fails ... when it just inserts a linear line between the segment end
    points" — every segment this imputer touches counts as failed, giving
    it the constant 100 % failure rate seen in Figures 9(e)-(f).
    """

    def __init__(self, maxgap_m: float = 100.0) -> None:
        if maxgap_m <= 0:
            raise ValueError(f"maxgap_m must be positive, got {maxgap_m!r}")
        self.maxgap_m = maxgap_m

    @property
    def name(self) -> str:
        return "Linear"

    def impute(self, trajectory: Trajectory) -> ImputationResult:
        points = trajectory.points
        if len(points) < 2:
            return ImputationResult(trajectory, ())
        out: list[Point] = [points[0]]
        outcomes: list[SegmentOutcome] = []
        for i in range(len(points) - 1):
            a, b = points[i], points[i + 1]
            if a.distance_to(b) > self.maxgap_m:
                interior = linear_interior(a, b, self.maxgap_m)
                out.extend(interior)
                outcomes.append(SegmentOutcome(i, True, 0, len(interior)))
            out.append(b)
        return ImputationResult(trajectory.with_points(out), tuple(outcomes))
