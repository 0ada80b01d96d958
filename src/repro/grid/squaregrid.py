"""A square grid (Google S2 substitute) for the grid-type experiment."""

from __future__ import annotations

import math

from repro.geo import Point
from repro.grid.base import Cell, Grid

_EDGE_DIRECTIONS: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
_CORNER_DIRECTIONS: tuple[Cell, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class SquareGrid(Grid):
    """Axis-aligned squares of side ``edge_length_m``.

    Cell ``(i, j)`` covers ``[i*E, (i+1)*E) x [j*E, (j+1)*E)``. As the paper
    notes when motivating hexagons (Section 3.1), a square cell has four
    edge-sharing neighbours plus four corner neighbours with different
    adjacency properties; :meth:`neighbors` returns the edge-sharing four
    and :meth:`neighbors_with_corners` all eight.
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

    def neighbors_with_corners(self, cell: Cell) -> list[Cell]:
        """All eight surrounding cells (edge- and corner-sharing)."""
        i, j = cell
        return [
            (i + di, j + dj) for di, dj in _EDGE_DIRECTIONS + _CORNER_DIRECTIONS
        ]

    def cell_steps(self, a: Cell, b: Cell) -> int:
        # Manhattan distance: the minimum number of edge crossings.
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    @classmethod
    def area_matched(cls, hex_edge_length_m: float) -> "SquareGrid":
        """A square grid whose cells cover the same area as hexagons.

        The paper's Fig. 12-III comparison sets the S2 edge so the square
        covers a similar area to the 75 m hexagon; a hexagon of edge ``s``
        has area ``1.5*sqrt(3)*s^2``, so the matching square edge is
        ``s * sqrt(1.5*sqrt(3))`` (~1.61 s, i.e. ~121 m for 75 m hexagons,
        matching the paper's 120 m choice).
        """
        return cls(hex_edge_length_m * math.sqrt(1.5 * math.sqrt(3.0)))
