"""Unit and property tests for repro.geo.trajectory."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EmptyInputError
from repro.geo import Point, Trajectory


def straight_line(n: int, spacing: float = 100.0, dt: float = 10.0) -> Trajectory:
    return Trajectory(
        "line", [Point(i * spacing, 0.0, t=i * dt) for i in range(n)]
    )


class TestBasics:
    def test_len_iter_getitem(self):
        t = straight_line(5)
        assert len(t) == 5
        assert list(t)[2] == t[2]

    def test_points_coerced_to_tuple(self):
        t = Trajectory("x", [Point(0, 0), Point(1, 1)])
        assert isinstance(t.points, tuple)

    def test_is_empty(self):
        assert Trajectory("e").is_empty
        assert not straight_line(2).is_empty

    def test_length(self):
        assert straight_line(5, spacing=100.0).length == pytest.approx(400.0)

    def test_duration(self):
        assert straight_line(5, dt=10.0).duration == pytest.approx(40.0)

    def test_duration_untimed_is_zero(self):
        t = Trajectory("x", [Point(0, 0), Point(1, 1)])
        assert t.duration == 0.0

    def test_is_time_ordered(self):
        assert straight_line(4).is_time_ordered()
        bad = Trajectory("x", [Point(0, 0, t=1.0), Point(1, 1, t=0.0)])
        assert not bad.is_time_ordered()
        untimed = Trajectory("x", [Point(0, 0), Point(1, 1)])
        assert not untimed.is_time_ordered()

    def test_bbox(self):
        b = straight_line(3, spacing=50.0).bbox()
        assert (b.min_x, b.max_x) == (0.0, 100.0)

    def test_bbox_empty_raises(self):
        with pytest.raises(EmptyInputError):
            Trajectory("e").bbox()

    def test_max_gap(self):
        t = Trajectory("x", [Point(0, 0), Point(50, 0), Point(250, 0)])
        assert t.max_gap() == pytest.approx(200.0)
        assert Trajectory("x", [Point(0, 0)]).max_gap() == 0.0

    def test_segments_count(self):
        assert len(list(straight_line(5).segments())) == 4


class TestSparsify:
    def test_keeps_endpoints(self):
        t = straight_line(20)
        sp = t.sparsify(500.0)
        assert sp.points[0] == t.points[0]
        assert sp.points[-1] == t.points[-1]

    def test_spacing_respected(self):
        sp = straight_line(50, spacing=100.0).sparsify(500.0)
        gaps = [a.distance_to(b) for a, b in sp.segments()]
        assert all(g >= 500.0 for g in gaps[:-1])

    def test_short_trajectory_unchanged(self):
        t = straight_line(2)
        assert t.sparsify(1000.0) is t

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            straight_line(5).sparsify(0.0)

    def test_repeated_final_point_object_is_kept(self):
        """The rule reads positions, not object identity: a final point
        that is the same object as the one before it is still kept."""
        a, b, c = Point(0, 0, t=0.0), Point(500, 0, t=1.0), Point(1000, 0, t=2.0)
        shared = Trajectory("x", (a, b, c, c))
        distinct = Trajectory("x", (a, b, c, Point(1000, 0, t=2.0)))
        assert shared.sparsify_indices(400.0) == [0, 1, 2, 3]
        assert shared.sparsify(400.0).points == distinct.sparsify(400.0).points
        assert len(shared.sparsify(400.0)) == 4

    @given(st.integers(min_value=3, max_value=60), st.floats(min_value=50, max_value=2000))
    def test_sparsified_is_subsequence(self, n, dist):
        t = straight_line(n)
        sp = t.sparsify(dist)
        it = iter(t.points)
        assert all(p in it for p in sp.points)  # order-preserving subsequence


class TestDiscretize:
    def test_spacing(self):
        pts = straight_line(11, spacing=100.0).discretize(100.0)
        xs = [p.x for p in pts]
        assert xs == pytest.approx(list(range(0, 1001, 100)))

    def test_includes_final_point(self):
        pts = straight_line(3, spacing=100.0).discretize(70.0)
        assert pts[-1].x == pytest.approx(200.0)

    def test_single_point(self):
        pts = Trajectory("x", [Point(5, 5)]).discretize(10.0)
        assert len(pts) == 1

    def test_interpolates_timestamps(self):
        pts = straight_line(2, spacing=100.0, dt=10.0).discretize(50.0)
        assert [p.t for p in pts] == pytest.approx([0.0, 5.0, 10.0])

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            straight_line(3).discretize(-1.0)

    @given(st.floats(min_value=10.0, max_value=500.0))
    def test_consecutive_spacing_bounded(self, spacing):
        pts = straight_line(10, spacing=100.0).discretize(spacing)
        for a, b in zip(pts, pts[1:]):
            assert a.distance_to(b) <= spacing + 1e-9

    def test_zero_length_segments_skipped(self):
        t = Trajectory("x", [Point(0, 0), Point(0, 0), Point(100, 0)])
        pts = t.discretize(50.0)
        assert [p.x for p in pts] == pytest.approx([0.0, 50.0, 100.0])


class TestResampleTime:
    def test_downsamples(self):
        t = straight_line(21, dt=1.0)
        r = t.resample_time(5.0)
        assert len(r) < len(t)
        deltas = [b.t - a.t for a, b in r.segments()]
        assert all(d >= 5.0 for d in deltas[:-1])

    def test_keeps_endpoints(self):
        t = straight_line(21, dt=1.0)
        r = t.resample_time(7.0)
        assert r.points[0] == t.points[0] and r.points[-1] == t.points[-1]

    def test_untimed_passthrough(self):
        t = Trajectory("x", [Point(0, 0), Point(1, 1), Point(2, 2)])
        assert t.resample_time(5.0) is t

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            straight_line(5).resample_time(0.0)


class TestSplit:
    def test_no_split_needed(self):
        t = straight_line(5)
        assert t.split(10) == [t]

    def test_chunks_share_boundary(self):
        t = straight_line(10)
        chunks = t.split(4)
        for a, b in zip(chunks, chunks[1:]):
            assert a.points[-1] == b.points[0]

    def test_all_points_covered(self):
        t = straight_line(11)
        chunks = t.split(3)
        total = sum(len(c) for c in chunks) - (len(chunks) - 1)  # dedupe joints
        assert total == len(t)

    def test_invalid_max_points(self):
        with pytest.raises(ValueError):
            straight_line(5).split(1)

    def test_with_points(self):
        t = straight_line(3)
        replaced = t.with_points([Point(9, 9)])
        assert len(replaced) == 1 and replaced.traj_id == t.traj_id
