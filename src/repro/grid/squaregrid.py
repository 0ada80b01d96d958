"""A square grid (Google S2 substitute) for the grid-type experiment."""

from __future__ import annotations

import math

from repro.geo import Point
from repro.grid.base import Cell, Grid

_EDGE_DIRECTIONS: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


class SquareGrid(Grid):
    """Axis-aligned squares of side ``edge_length_m``.

    Cell ``(i, j)`` covers ``[i*E, (i+1)*E) x [j*E, (j+1)*E)``. As the paper
    notes when motivating hexagons (Section 3.1), a square cell has four
    edge-sharing neighbours plus four corner neighbours with different
    adjacency properties; :meth:`neighbors` returns the edge-sharing four.
    """

    @property
    def cell_area_m2(self) -> float:
        return self.edge_length_m**2

    @property
    def centroid_spacing_m(self) -> float:
        return self.edge_length_m

    def cell_of(self, point: Point) -> Cell:
        e = self.edge_length_m
        return (math.floor(point.x / e), math.floor(point.y / e))

    def centroid(self, cell: Cell) -> Point:
        i, j = cell
        e = self.edge_length_m
        return Point((i + 0.5) * e, (j + 0.5) * e)

    def neighbors(self, cell: Cell) -> list[Cell]:
        i, j = cell
        return [(i + di, j + dj) for di, dj in _EDGE_DIRECTIONS]

