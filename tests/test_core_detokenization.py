"""Tests for the detokenization module (paper Section 7)."""

import math

import pytest

from repro.core.detokenization import Detokenizer, _circular_mean, _point_directions
from repro.core.tokenization import Tokenizer
from repro.geo import Point, Trajectory
from repro.grid import HexGrid

import numpy as np


@pytest.fixture()
def tokenizer():
    return Tokenizer(HexGrid(75.0))


def horizontal_traj(tid, y, n=40, step=10.0, reverse=False):
    pts = [Point(i * step, y, t=float(i)) for i in range(n)]
    if reverse:
        pts = [Point(p.x, p.y, t=float(i)) for i, p in enumerate(reversed(pts))]
    return Trajectory(tid, pts)


def vertical_traj(tid, x, n=40, step=10.0):
    return Trajectory(tid, [Point(x, i * step, t=float(i)) for i in range(n)])


class TestHelpers:
    def test_point_directions_east(self):
        dirs = _point_directions(horizontal_traj("t", 0.0, n=5))
        assert all(abs(d) < 1e-9 for _, d in dirs)

    def test_point_directions_too_short(self):
        assert _point_directions(Trajectory("t", [Point(0, 0)])) == []

    def test_circular_mean_wraps(self):
        angles = np.array([math.pi - 0.1, -math.pi + 0.1])
        mean = _circular_mean(angles)
        assert abs(abs(mean) - math.pi) < 0.2


class TestFit:
    def test_cells_populated(self, tokenizer):
        detok = Detokenizer(tokenizer).fit([horizontal_traj("a", 0.0)])
        assert detok.num_cells > 0

    def test_crossing_roads_make_two_clusters(self, tokenizer):
        """A cell where a horizontal and a vertical road cross must get
        (at least) two directional clusters (Figure 8a)."""
        trajs = [horizontal_traj(f"h{i}", 0.0 + i) for i in range(3)] + [
            vertical_traj(f"v{i}", 0.0 + i) for i in range(3)
        ]
        detok = Detokenizer(tokenizer).fit(trajs)
        crossing_cell = tokenizer.grid.cell_of(Point(0.0, 0.0))
        info = detok.cell_info(crossing_cell)
        assert len(info.clusters) >= 2
        directions = sorted(abs(c.direction) for c in info.clusters)
        # One cluster ~eastward (0), one ~northward (pi/2).
        assert directions[0] < 0.5
        assert any(abs(d - math.pi / 2) < 0.5 for d in directions)

    def test_sparse_cell_no_clusters(self, tokenizer):
        traj = Trajectory("tiny", [Point(0, 0, t=0.0), Point(30, 0, t=3.0)])
        detok = Detokenizer(tokenizer).fit([traj])
        info = detok.cell_info(tokenizer.grid.cell_of(Point(0, 0)))
        assert info.clusters == ()
        assert info.data_centroid is not None


class TestOnline:
    def test_unknown_cell_falls_back_to_hexagon_centroid(self, tokenizer):
        detok = Detokenizer(tokenizer)
        cell = tokenizer.grid.cell_of(Point(5000, 5000))
        token = tokenizer.vocabulary.add(cell)
        point = detok.point_for_token(token, None, None)
        assert point == tokenizer.grid.centroid(cell)

    def test_single_cluster_uses_its_centroid(self, tokenizer):
        detok = Detokenizer(tokenizer).fit([horizontal_traj("a", 20.0)])
        cell = tokenizer.grid.cell_of(Point(0, 20.0))
        token = tokenizer.vocabulary.add(cell)
        point = detok.point_for_token(token, None, None)
        assert abs(point.y - 20.0) < 10.0  # near the road, not the cell centroid

    def test_direction_picks_matching_cluster(self, tokenizer):
        trajs = [horizontal_traj(f"h{i}", 0.0 + i) for i in range(3)] + [
            vertical_traj(f"v{i}", 0.0 + i) for i in range(3)
        ]
        detok = Detokenizer(tokenizer).fit(trajs)
        cell = tokenizer.grid.cell_of(Point(0, 0))
        token = tokenizer.vocabulary.add(cell)
        centroid = tokenizer.grid.centroid(cell)
        # Travelling east: incoming from the west, heading further east.
        east_point = detok.point_for_token(
            token, centroid.offset(-200, 0), centroid.offset(200, 0)
        )
        # Travelling north.
        north_point = detok.point_for_token(
            token, centroid.offset(0, -200), centroid.offset(0, 200)
        )
        # The eastbound pick lies on the horizontal road (y ~ 0-3), the
        # northbound pick on the vertical road (x ~ 0-3).
        assert abs(east_point.y) < 15.0
        assert abs(north_point.x) < 15.0

    def test_no_direction_context_uses_biggest_cluster(self, tokenizer):
        trajs = [horizontal_traj(f"h{i}", 0.0 + i) for i in range(4)] + [
            vertical_traj("v0", 0.0)
        ]
        detok = Detokenizer(tokenizer).fit(trajs)
        cell = tokenizer.grid.cell_of(Point(0, 0))
        token = tokenizer.vocabulary.add(cell)
        point = detok.point_for_token(token, None, None)
        info = detok.cell_info(cell)
        if len(info.clusters) >= 2:
            biggest = max(info.clusters, key=lambda c: c.size)
            assert point == biggest.centroid

    def test_detokenize_interior_order_and_length(self, tokenizer):
        detok = Detokenizer(tokenizer).fit(
            [horizontal_traj("a", 0.0, n=100, step=10.0)]
        )
        cells = [tokenizer.grid.cell_of(Point(x, 0.0)) for x in (130.0, 260.0, 390.0)]
        tokens = [tokenizer.vocabulary.add(c) for c in cells]
        pts = detok.detokenize_interior(tokens, Point(0, 0), Point(520, 0))
        assert len(pts) == 3
        xs = [p.x for p in pts]
        assert xs == sorted(xs)  # walking east

    def test_detokenize_empty(self, tokenizer):
        detok = Detokenizer(tokenizer)
        assert detok.detokenize_interior([], Point(0, 0), Point(1, 1)) == []
