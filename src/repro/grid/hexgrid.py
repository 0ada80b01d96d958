"""A flat hexagonal grid in axial coordinates (H3 substitute).

Pointy-top hexagons of edge length ``s`` tile the plane. A cell is an axial
coordinate ``(q, r)``; conversions follow the standard axial/cube formulas
(e.g. the Red Blob Games hexagon reference):

* centroid:  ``x = s * sqrt(3) * (q + r / 2)``, ``y = s * 3/2 * r``
* point -> cell: invert the above to fractional axial coordinates, then
  round in cube space (the component with the largest rounding error is
  recomputed from the other two).

Every cell has exactly six neighbours; all of them share a border of length
``s`` and sit at centroid distance ``s * sqrt(3)`` — the uniformity the
paper argues makes hexagons better BERT tokens than squares (Section 3.1).
"""

from __future__ import annotations

import math

from repro.geo import Point
from repro.grid.base import Cell, Grid

_SQRT3 = math.sqrt(3.0)

_AXIAL_DIRECTIONS: tuple[Cell, ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)


def _cube_round(qf: float, rf: float) -> Cell:
    """Round fractional axial coordinates to the nearest hexagon."""
    sf = -qf - rf
    q, r, s = round(qf), round(rf), round(sf)
    dq, dr, ds = abs(q - qf), abs(r - rf), abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return int(q), int(r)


class HexGrid(Grid):
    """Pointy-top hexagonal tessellation with edge length ``edge_length_m``."""

    @property
    def cell_area_m2(self) -> float:
        return 1.5 * _SQRT3 * self.edge_length_m**2

    @property
    def centroid_spacing_m(self) -> float:
        return _SQRT3 * self.edge_length_m

    def cell_of(self, point: Point) -> Cell:
        s = self.edge_length_m
        qf = (_SQRT3 / 3.0 * point.x - point.y / 3.0) / s
        rf = (2.0 / 3.0 * point.y) / s
        return _cube_round(qf, rf)

    def centroid(self, cell: Cell) -> Point:
        q, r = cell
        s = self.edge_length_m
        return Point(s * _SQRT3 * (q + r / 2.0), s * 1.5 * r)

    def neighbors(self, cell: Cell) -> list[Cell]:
        q, r = cell
        return [(q + dq, r + dr) for dq, dr in _AXIAL_DIRECTIONS]
