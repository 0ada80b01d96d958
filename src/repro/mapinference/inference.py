"""Grid-density map inference from raw trajectories.

A deliberately classical algorithm (in the spirit of Biagioni & Eriksson's
KDE family): rasterize every trajectory onto a fine grid, accumulate visit
counts, and threshold into an occupancy map.

Crucially, trajectories are rasterized *as polylines* — each consecutive
point pair contributes the straight chord between them, because a map
inference algorithm has nothing better to assume about the in-between.
With dense (or well-imputed) input those chords hug the roads; with sparse
input they cut straight across blocks, which is exactly the failure mode
that motivates KAMEL.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

from repro.errors import EmptyInputError
from repro.geo import Point, Trajectory, interpolate

GridCell = tuple[int, int]

CELL_M = 25.0
"""Raster resolution; ~road-width scale."""
RASTERIZE_STEP_M = 10.0
"""Sampling step when marking a polyline's cells."""


class InferredMap:
    """The inference output: per-cell trajectory visit counts."""

    def __init__(self, cell_m: float, counts: dict[GridCell, int]) -> None:
        self.cell_m = cell_m
        self._counts = dict(counts)

    @property
    def num_cells(self) -> int:
        return len(self._counts)

    def visit_count(self, cell: GridCell) -> int:
        return self._counts.get(cell, 0)

    def occupied_cells(self, min_visits: int = 1) -> set[GridCell]:
        """Cells supported by at least ``min_visits`` trajectories."""
        return {c for c, n in self._counts.items() if n >= min_visits}

    def cell_center(self, cell: GridCell) -> Point:
        return Point((cell[0] + 0.5) * self.cell_m, (cell[1] + 0.5) * self.cell_m)

    def road_points(self, min_visits: int = 1) -> list[Point]:
        """Centers of the occupied cells — the inferred road surface."""
        return [self.cell_center(c) for c in sorted(self.occupied_cells(min_visits))]


class TrajectoryMapInference:
    """Accumulates trajectories into an :class:`InferredMap`."""

    def _cells_of(self, trajectory: Trajectory) -> set[GridCell]:
        cells: set[GridCell] = set()
        points = trajectory.points
        if not points:
            return cells

        def mark(p: Point) -> None:
            cells.add((math.floor(p.x / CELL_M), math.floor(p.y / CELL_M)))

        mark(points[0])
        for a, b in trajectory.segments():
            length = a.distance_to(b)
            steps = max(1, int(length / RASTERIZE_STEP_M))
            for k in range(1, steps + 1):
                mark(interpolate(a, b, k / steps))
        return cells

    def infer(self, trajectories: Iterable[Trajectory]) -> InferredMap:
        """Infer a map; each trajectory votes once per cell it crosses."""
        counts: dict[GridCell, int] = defaultdict(int)
        seen_any = False
        for trajectory in trajectories:
            seen_any = True
            for cell in self._cells_of(trajectory):
                counts[cell] += 1
        if not seen_any:
            raise EmptyInputError("map inference needs at least one trajectory")
        # All counts are kept; consumers threshold via occupied_cells().
        return InferredMap(CELL_M, dict(counts))
