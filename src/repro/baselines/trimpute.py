"""TrImpute: crowd-wisdom trajectory imputation (Elshrif et al., 2022).

The paper's direct competitor and the network-free state of the art it
evaluates against. TrImpute keeps *no model*: it indexes the raw
historical GPS points on a fine grid, remembering per cell how many points
were seen and their average travel direction. To impute a gap it walks
from the source toward the destination, at each step voting among nearby
cells by (a) historical point density, (b) agreement between the cell's
historical direction and the direction toward the destination, and
(c) forward progress. The walk fails — and the segment falls back to a
straight line — when no populated cell supports the next step, which is
exactly why the technique "only works when there are significant amounts
of highly dense historical data" (paper Sections 1 and 9).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.result import ImputationResult, Imputer, SegmentOutcome
from repro.errors import NotFittedError
from repro.geo import Point, Trajectory, assign_times, linear_interior
from repro.geo.point import angle_difference


CELL_M = 50.0
"""Edge of the voting grid cells."""
SEARCH_RADIUS_CELLS = 3
"""How far (in cells) a step may jump from the current cell."""
MIN_VOTES = 2
"""Cells with fewer historical points than this cannot be stepped on."""
DIRECTION_TOLERANCE_DEG = 100.0
"""A step must stay within this bearing of the destination."""
MAX_STEPS = 120
DENSITY_WEIGHT = 1.0
DIRECTION_WEIGHT = 2.0


@dataclass
class _CellStats:
    count: int = 0
    sum_x: float = 0.0
    sum_y: float = 0.0
    sum_cos: float = 0.0
    sum_sin: float = 0.0

    def add(self, p: Point, direction: Optional[float]) -> None:
        self.count += 1
        self.sum_x += p.x
        self.sum_y += p.y
        if direction is not None:
            self.sum_cos += math.cos(direction)
            self.sum_sin += math.sin(direction)

    @property
    def mean_point(self) -> Point:
        return Point(self.sum_x / self.count, self.sum_y / self.count)

    @property
    def mean_direction(self) -> Optional[float]:
        if self.sum_cos == 0.0 and self.sum_sin == 0.0:
            return None
        return math.atan2(self.sum_sin, self.sum_cos)


class TrImpute(Imputer):
    """The crowd-wisdom walker."""

    def __init__(self, maxgap_m: float = 100.0) -> None:
        if maxgap_m <= 0:
            raise ValueError(f"maxgap_m must be positive, got {maxgap_m!r}")
        self.maxgap_m = maxgap_m
        self._cells: dict[tuple[int, int], _CellStats] = defaultdict(_CellStats)
        self._fitted = False

    @property
    def name(self) -> str:
        return "TrImpute"

    # -- training ("computing a simple set of stats and lookup indices") --

    def _key(self, p: Point) -> tuple[int, int]:
        return (math.floor(p.x / CELL_M), math.floor(p.y / CELL_M))

    def fit(self, trajectories: Sequence[Trajectory]) -> "TrImpute":
        for traj in trajectories:
            pts = traj.points
            for i, p in enumerate(pts):
                direction: Optional[float] = None
                if len(pts) >= 2:
                    a = pts[i - 1] if i > 0 else pts[0]
                    b = pts[i + 1] if i + 1 < len(pts) else pts[-1]
                    if a.distance_to(b) > 0:
                        direction = a.bearing_to(b)
                self._cells[self._key(p)].add(p, direction)
        self._fitted = True
        return self

    # -- the guided walk -----------------------------------------------------

    def _candidate_cells(self, around: tuple[int, int]) -> list[tuple[int, int]]:
        i0, j0 = around
        out = []
        for di in range(-SEARCH_RADIUS_CELLS, SEARCH_RADIUS_CELLS + 1):
            for dj in range(-SEARCH_RADIUS_CELLS, SEARCH_RADIUS_CELLS + 1):
                if di == 0 and dj == 0:
                    continue
                key = (i0 + di, j0 + dj)
                if key in self._cells:
                    out.append(key)
        return out

    def _score(self, stats: _CellStats, pos: Point, dest: Point) -> Optional[float]:
        cell_pt = stats.mean_point
        step = pos.distance_to(cell_pt)
        if step == 0.0:
            return None
        to_dest = pos.bearing_to(dest)
        to_cell = pos.bearing_to(cell_pt)
        if angle_difference(to_dest, to_cell) > math.radians(DIRECTION_TOLERANCE_DEG):
            return None
        density = math.log1p(stats.count) * DENSITY_WEIGHT
        alignment = 0.0
        mean_dir = stats.mean_direction
        if mean_dir is not None:
            # Historical flow through the cell should roughly agree with
            # where we are headed (either way: roads carry both directions).
            diff = angle_difference(mean_dir, to_dest)
            diff = min(diff, math.pi - diff)
            alignment = (1.0 - diff / (math.pi / 2.0)) * DIRECTION_WEIGHT
        progress = dest.distance_to(cell_pt)
        return density + alignment - progress / (10.0 * CELL_M)

    def _walk(self, a: Point, b: Point) -> Optional[list[Point]]:
        """Crowd-guided walk from a to b; None when the walk gets stuck."""
        pos = a
        visited: set[tuple[int, int]] = {self._key(a)}
        interior: list[Point] = []
        for _ in range(MAX_STEPS):
            if pos.distance_to(b) <= self.maxgap_m:
                return interior
            best_key: Optional[tuple[int, int]] = None
            best_score = float("-inf")
            for key in self._candidate_cells(self._key(pos)):
                if key in visited:
                    continue
                stats = self._cells[key]
                if stats.count < MIN_VOTES:
                    continue
                score = self._score(stats, pos, b)
                if score is not None and score > best_score:
                    best_score = score
                    best_key = key
            if best_key is None:
                return None
            visited.add(best_key)
            pos = self._cells[best_key].mean_point
            interior.append(pos)
        return None

    # -- Imputer interface ------------------------------------------------------

    def impute(self, trajectory: Trajectory) -> ImputationResult:
        if not self._fitted:
            raise NotFittedError("TrImpute.impute before fit")
        points = trajectory.points
        if len(points) < 2:
            return ImputationResult(trajectory, ())
        out: list[Point] = [points[0]]
        outcomes: list[SegmentOutcome] = []
        for i in range(len(points) - 1):
            a, b = points[i], points[i + 1]
            if a.distance_to(b) <= self.maxgap_m:
                out.append(b)
                continue
            interior = self._walk(a, b)
            if interior is None:
                interior = linear_interior(a, b, self.maxgap_m)
                outcomes.append(SegmentOutcome(i, True, 0, len(interior)))
            else:
                interior = assign_times(a, b, interior)
                outcomes.append(SegmentOutcome(i, False, 0, len(interior)))
            out.extend(interior)
            out.append(b)
        return ImputationResult(trajectory.with_points(out), tuple(outcomes))
