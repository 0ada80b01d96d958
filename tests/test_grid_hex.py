"""Unit and property tests for the hexagonal grid (H3 substitute)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo import Point
from repro.grid import HexGrid

coords = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)
cells = st.tuples(st.integers(-300, 300), st.integers(-300, 300))


@pytest.fixture(scope="module")
def grid() -> HexGrid:
    return HexGrid(75.0)


class TestGeometry:
    def test_rejects_nonpositive_edge(self):
        with pytest.raises(ValueError):
            HexGrid(0.0)

    def test_cell_area(self, grid):
        assert grid.cell_area_m2 == pytest.approx(1.5 * math.sqrt(3) * 75.0**2)

    def test_centroid_spacing(self, grid):
        assert grid.centroid_spacing_m == pytest.approx(math.sqrt(3) * 75.0)

    def test_origin_cell(self, grid):
        assert grid.cell_of(Point(0, 0)) == (0, 0)
        c = grid.centroid((0, 0))
        assert (c.x, c.y) == (0.0, 0.0)

    @given(coords, coords)
    def test_round_trip_point_within_cell(self, grid, x, y):
        """A point's cell centroid is never further than the circumradius."""
        cell = grid.cell_of(Point(x, y))
        assert grid.centroid(cell).distance_to(Point(x, y)) <= 75.0 + 1e-6

    @given(cells)
    def test_centroid_maps_back_to_cell(self, grid, cell):
        assert grid.cell_of(grid.centroid(cell)) == cell


class TestNeighbors:
    def test_six_neighbors(self, grid):
        assert len(grid.neighbors((0, 0))) == 6

    @given(cells)
    def test_neighbors_equidistant(self, grid, cell):
        """The paper's argument for hexagons: all 6 neighbours identical."""
        c = grid.centroid(cell)
        distances = [c.distance_to(grid.centroid(n)) for n in grid.neighbors(cell)]
        for d in distances:
            assert d == pytest.approx(grid.centroid_spacing_m)

    @given(cells)
    def test_neighbor_symmetry(self, grid, cell):
        for n in grid.neighbors(cell):
            assert cell in grid.neighbors(n)


class TestCellSteps:
    @given(cells, st.integers(0, 3))
    def test_steps_lower_bounds_metric_distance(self, grid, a, steps):
        """k steps cannot cover more than k * centroid spacing."""
        for b in grid.ring(a, steps):
            assert grid.cell_distance_m(a, b) <= steps * grid.centroid_spacing_m + 1e-6


class TestRegionQueries:
    def test_ring_zero(self, grid):
        assert grid.ring((2, 2), 0) == {(2, 2)}

    def test_ring_one(self, grid):
        ring = grid.ring((0, 0), 1)
        assert len(ring) == 7  # center + 6 neighbours

    def test_ring_two_size(self, grid):
        # 1 + 6 + 12 cells within two steps of a hexagon.
        assert len(grid.ring((0, 0), 2)) == 19

    def test_ring_negative_raises(self, grid):
        with pytest.raises(ValueError):
            grid.ring((0, 0), -1)
