"""Tests for trajectory preprocessing: outlier removal and trip splitting."""

import pytest

from repro.geo import Point, Trajectory
from repro.preprocess import remove_outliers, split_by_time_gap


class TestOutlierRemoval:
    def test_removes_teleport(self):
        pts = [Point(i * 10.0, 0.0, t=float(i)) for i in range(10)]
        pts[5] = Point(50.0, 5000.0, t=5.0)  # corrupted fix
        cleaned = remove_outliers(Trajectory("t", pts), max_speed_mps=50.0)
        assert len(cleaned) == 9
        assert all(abs(p.y) < 100 for p in cleaned.points)

    def test_keeps_valid_points(self):
        traj = Trajectory("t", [Point(i * 10.0, 0.0, t=float(i)) for i in range(10)])
        assert len(remove_outliers(traj)) == 10

    def test_untimed_points_kept(self):
        traj = Trajectory("t", [Point(0, 0), Point(1e6, 1e6)])
        assert len(remove_outliers(traj)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            remove_outliers(Trajectory("t"), max_speed_mps=0.0)


class TestSplitByTimeGap:
    def test_no_gap_single_trip(self):
        traj = Trajectory("t", [Point(i * 10.0, 0, t=float(i)) for i in range(10)])
        pieces = split_by_time_gap(traj)
        assert len(pieces) == 1
        assert pieces[0].traj_id == "t"

    def test_splits_on_gap(self):
        pts = [Point(i * 10.0, 0, t=float(i)) for i in range(5)]
        pts += [Point(1000 + i * 10.0, 0, t=1000.0 + i) for i in range(5)]
        pieces = split_by_time_gap(Trajectory("t", pts), max_gap_s=300.0)
        assert len(pieces) == 2
        assert pieces[0].traj_id == "t/0"
        assert pieces[1].traj_id == "t/1"
        assert len(pieces[0]) == 5 and len(pieces[1]) == 5

    def test_min_points_filters_fragments(self):
        pts = [Point(0, 0, t=0.0)]
        pts += [Point(1000 + i * 10.0, 0, t=1000.0 + i) for i in range(5)]
        pieces = split_by_time_gap(Trajectory("t", pts), min_points=3)
        assert len(pieces) == 1
        assert len(pieces[0]) == 5

    def test_empty_trajectory(self):
        assert split_by_time_gap(Trajectory("e"), min_points=1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            split_by_time_gap(Trajectory("t"), max_gap_s=0.0)
        with pytest.raises(ValueError):
            split_by_time_gap(Trajectory("t"), min_points=0)
