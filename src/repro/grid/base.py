"""The grid interface shared by hexagonal and square tessellations."""

from __future__ import annotations

import abc

from repro.geo import Point

Cell = tuple[int, int]
"""A grid cell identifier: integer lattice coordinates."""


class Grid(abc.ABC):
    """A non-overlapping tessellation of the plane into cells.

    Concrete grids must map points to cells and cells back to centroid
    points, and enumerate neighbours; distances and rings are derived
    generically from those primitives.
    """

    def __init__(self, edge_length_m: float) -> None:
        if edge_length_m <= 0:
            raise ValueError(f"edge_length_m must be positive, got {edge_length_m!r}")
        self.edge_length_m = float(edge_length_m)

    # -- primitives ------------------------------------------------------

    @abc.abstractmethod
    def cell_of(self, point: Point) -> Cell:
        """The cell containing ``point``."""

    @abc.abstractmethod
    def centroid(self, cell: Cell) -> Point:
        """The centroid of ``cell`` (untimed)."""

    @abc.abstractmethod
    def neighbors(self, cell: Cell) -> list[Cell]:
        """Cells sharing an edge with ``cell``."""

    @property
    @abc.abstractmethod
    def cell_area_m2(self) -> float:
        """Area of one cell in square meters."""

    @property
    @abc.abstractmethod
    def centroid_spacing_m(self) -> float:
        """Distance between the centroids of two edge-sharing cells."""

    # -- derived operations ----------------------------------------------

    def cell_distance_m(self, a: Cell, b: Cell) -> float:
        """Euclidean distance between the centroids of two cells."""
        return self.centroid(a).distance_to(self.centroid(b))

    def ring(self, cell: Cell, radius: int) -> set[Cell]:
        """All cells within ``radius`` steps of ``cell`` (incl. itself)."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius!r}")
        seen = {cell}
        frontier = [cell]
        for _ in range(radius):
            nxt: list[Cell] = []
            for c in frontier:
                for n in self.neighbors(c):
                    if n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        return seen

    def __repr__(self) -> str:
        return f"{type(self).__name__}(edge_length_m={self.edge_length_m})"
