"""Unit and property tests for the square grid (S2 substitute)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo import Point
from repro.grid import HexGrid, SquareGrid

coords = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)
cells = st.tuples(st.integers(-300, 300), st.integers(-300, 300))


@pytest.fixture(scope="module")
def grid() -> SquareGrid:
    return SquareGrid(120.0)


class TestGeometry:
    def test_cell_area(self, grid):
        assert grid.cell_area_m2 == pytest.approx(120.0**2)

    def test_centroid_spacing(self, grid):
        assert grid.centroid_spacing_m == 120.0

    def test_cell_of_floor_semantics(self, grid):
        assert grid.cell_of(Point(0, 0)) == (0, 0)
        assert grid.cell_of(Point(-0.001, 0)) == (-1, 0)
        assert grid.cell_of(Point(119.9, 119.9)) == (0, 0)
        assert grid.cell_of(Point(120.0, 0)) == (1, 0)

    @given(coords, coords)
    def test_point_within_own_cell(self, grid, x, y):
        cell = grid.cell_of(Point(x, y))
        c = grid.centroid(cell)
        assert abs(c.x - x) <= 60.0 + 1e-6
        assert abs(c.y - y) <= 60.0 + 1e-6

    @given(cells)
    def test_centroid_maps_back(self, grid, cell):
        assert grid.cell_of(grid.centroid(cell)) == cell


class TestNeighbors:
    def test_four_edge_neighbors(self, grid):
        assert len(grid.neighbors((0, 0))) == 4

    def test_neighbor_asymmetry_vs_hexagons(self):
        """The paper's Fig. 12-III rationale: square neighbours are not
        uniform — corner neighbours sit sqrt(2) x further away."""
        square = SquareGrid(100.0)
        c = square.centroid((0, 0))
        edge_d = {round(c.distance_to(square.centroid(n)), 6) for n in square.neighbors((0, 0))}
        corner_d = {
            round(c.distance_to(square.centroid(n)), 6)
            for n in [*square.neighbors((0, 0)), (1, 1), (1, -1), (-1, 1), (-1, -1)]
        }
        assert len(edge_d) == 1
        assert len(corner_d) == 2  # two distinct distances: edge + corner

        hexes = HexGrid(75.0)
        hc = hexes.centroid((0, 0))
        hex_d = {round(hc.distance_to(hexes.centroid(n)), 6) for n in hexes.neighbors((0, 0))}
        assert len(hex_d) == 1  # hexagons: all six identical

    @given(cells)
    def test_neighbor_symmetry(self, grid, cell):
        for n in grid.neighbors(cell):
            assert cell in grid.neighbors(n)


class TestAreaMatching:
    def test_paper_square_edge_matches_hexagon_area(self):
        """Fig. 12-III compares 75 m hexagons with the paper's 120 m
        squares: the area-matched edge is 75 * sqrt(1.5 * sqrt(3)) ~ 120.9 m,
        so the two cells cover the same area to within 1.5 %."""
        hexes = HexGrid(75.0)
        assert math.sqrt(hexes.cell_area_m2) == pytest.approx(120.9, abs=0.05)
        assert SquareGrid(120.0).cell_area_m2 == pytest.approx(hexes.cell_area_m2, rel=0.015)
