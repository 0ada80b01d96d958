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


@dataclass(frozen=True)
class TrImputeConfig:
    """Knobs of the crowd-wisdom walk."""

    maxgap_m: float = 100.0
    cell_m: float = 50.0
    """Edge of the voting grid cells."""
    search_radius_cells: int = 3
    """How far (in cells) a step may jump from the current cell."""
    min_votes: int = 2
    """Cells with fewer historical points than this cannot be stepped on."""
    direction_tolerance_deg: float = 100.0
    """A step must stay within this bearing of the destination."""
    max_steps: int = 120
    density_weight: float = 1.0
    direction_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.maxgap_m <= 0 or self.cell_m <= 0:
            raise ValueError("maxgap_m and cell_m must be positive")
        if self.search_radius_cells < 1:
            raise ValueError("search_radius_cells must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


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

    def __init__(self, config: Optional[TrImputeConfig] = None) -> None:
        self.config = config or TrImputeConfig()
        self._cells: dict[tuple[int, int], _CellStats] = defaultdict(_CellStats)
        self._fitted = False

    @property
    def name(self) -> str:
        return "TrImpute"

    # -- training ("computing a simple set of stats and lookup indices") --

    def _key(self, p: Point) -> tuple[int, int]:
        c = self.config.cell_m
        return (math.floor(p.x / c), math.floor(p.y / c))

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
        r = self.config.search_radius_cells
        i0, j0 = around
        out = []
        for di in range(-r, r + 1):
            for dj in range(-r, r + 1):
                if di == 0 and dj == 0:
                    continue
                key = (i0 + di, j0 + dj)
                if key in self._cells:
                    out.append(key)
        return out

    def _score(self, stats: _CellStats, pos: Point, dest: Point) -> Optional[float]:
        cfg = self.config
        cell_pt = stats.mean_point
        step = pos.distance_to(cell_pt)
        if step == 0.0:
            return None
        to_dest = pos.bearing_to(dest)
        to_cell = pos.bearing_to(cell_pt)
        if angle_difference(to_dest, to_cell) > math.radians(cfg.direction_tolerance_deg):
            return None
        density = math.log1p(stats.count) * cfg.density_weight
        alignment = 0.0
        mean_dir = stats.mean_direction
        if mean_dir is not None:
            # Historical flow through the cell should roughly agree with
            # where we are headed (either way: roads carry both directions).
            diff = angle_difference(mean_dir, to_dest)
            diff = min(diff, math.pi - diff)
            alignment = (1.0 - diff / (math.pi / 2.0)) * cfg.direction_weight
        progress = dest.distance_to(cell_pt)
        return density + alignment - progress / (10.0 * cfg.cell_m)

    def _walk(self, a: Point, b: Point) -> Optional[list[Point]]:
        """Crowd-guided walk from a to b; None when the walk gets stuck."""
        cfg = self.config
        pos = a
        visited: set[tuple[int, int]] = {self._key(a)}
        interior: list[Point] = []
        for _ in range(cfg.max_steps):
            if pos.distance_to(b) <= cfg.maxgap_m:
                return interior
            best_key: Optional[tuple[int, int]] = None
            best_score = float("-inf")
            for key in self._candidate_cells(self._key(pos)):
                if key in visited:
                    continue
                stats = self._cells[key]
                if stats.count < cfg.min_votes:
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
        cfg = self.config
        points = trajectory.points
        if len(points) < 2:
            return ImputationResult(trajectory, ())
        out: list[Point] = [points[0]]
        outcomes: list[SegmentOutcome] = []
        for i in range(len(points) - 1):
            a, b = points[i], points[i + 1]
            if a.distance_to(b) <= cfg.maxgap_m:
                out.append(b)
                continue
            interior = self._walk(a, b)
            if interior is None:
                interior = linear_interior(a, b, cfg.maxgap_m)
                outcomes.append(SegmentOutcome(i, True, 0, len(interior)))
            else:
                interior = assign_times(a, b, interior)
                outcomes.append(SegmentOutcome(i, False, 0, len(interior)))
            out.extend(interior)
            out.append(b)
        return ImputationResult(trajectory.with_points(out), tuple(outcomes))
