"""Tests for the three baseline imputers."""

import math

import pytest

from repro.baselines import (
    HmmMapMatcher,
    LinearImputer,
    TrImpute,
)
from repro.baselines.mapmatch import _point_at, _subline
from repro.errors import NotFittedError
from repro.geo import Point, Trajectory


def sparse_line(tid="line", n=3, spacing=500.0):
    return Trajectory(tid, [Point(i * spacing, 0.0, t=i * 60.0) for i in range(n)])


class TestLinearImputer:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearImputer(0.0)

    def test_name(self):
        assert LinearImputer().name == "Linear"

    def test_fills_gaps_at_maxgap_spacing(self):
        result = LinearImputer(100.0).impute(sparse_line())
        assert result.trajectory.max_gap() <= 100.0 + 1e-9

    def test_every_segment_counts_as_failure(self):
        result = LinearImputer(100.0).impute(sparse_line())
        assert result.failure_rate == 1.0
        assert result.num_segments == 2

    def test_small_gaps_untouched(self):
        dense = Trajectory("d", [Point(0, 0), Point(50, 0), Point(100, 0)])
        result = LinearImputer(100.0).impute(dense)
        assert result.num_segments == 0
        assert result.trajectory.points == dense.points

    def test_short_trajectory(self):
        single = Trajectory("s", [Point(0, 0)])
        assert LinearImputer().impute(single).trajectory == single

    def test_interpolates_timestamps(self):
        result = LinearImputer(100.0).impute(sparse_line(n=2))
        times = [p.t for p in result.trajectory.points]
        assert times == sorted(times)
        assert all(t is not None for t in times)

    def test_points_on_the_line(self):
        result = LinearImputer(100.0).impute(sparse_line(n=2))
        assert all(p.y == 0.0 for p in result.trajectory.points)


class TestTrImpute:
    @pytest.fixture(scope="class")
    def corridor_history(self):
        """Dense historical traffic along a straight east-west road."""
        trajs = []
        for k in range(30):
            y = (k % 3) - 1.0
            trajs.append(
                Trajectory(
                    f"h{k}", [Point(i * 25.0, y, t=float(i)) for i in range(60)]
                )
            )
        return trajs

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            TrImpute().impute(sparse_line())

    def test_validation(self):
        with pytest.raises(ValueError):
            TrImpute(maxgap_m=0.0)

    def test_name(self):
        assert TrImpute().name == "TrImpute"

    def test_fit_indexes_cells(self, corridor_history):
        model = TrImpute().fit(corridor_history)
        assert len(model._cells) > 10

    def test_walk_succeeds_with_dense_history(self, corridor_history):
        model = TrImpute(maxgap_m=100.0).fit(corridor_history)
        result = model.impute(sparse_line())
        assert result.failure_rate < 1.0
        # Imputed points hug the historical road (y ~ 0 +- 1).
        for p in result.trajectory.points:
            assert abs(p.y) < 30.0

    def test_fails_without_nearby_history(self, corridor_history):
        """The paper's criticism: no dense prior data -> failure."""
        model = TrImpute(maxgap_m=100.0).fit(corridor_history)
        elsewhere = Trajectory(
            "far", [Point(0, 9000.0, t=0.0), Point(1000.0, 9000.0, t=90.0)]
        )
        result = model.impute(elsewhere)
        assert result.failure_rate == 1.0

    def test_failed_segments_still_filled_linearly(self, corridor_history):
        model = TrImpute(maxgap_m=100.0).fit(corridor_history)
        elsewhere = Trajectory(
            "far", [Point(0, 9000.0, t=0.0), Point(1000.0, 9000.0, t=90.0)]
        )
        result = model.impute(elsewhere)
        assert result.trajectory.max_gap() <= 100.0 + 1e-9

    def test_short_trajectory(self, corridor_history):
        model = TrImpute().fit(corridor_history)
        single = Trajectory("s", [Point(0, 0)])
        assert model.impute(single).num_segments == 0


class TestOneStraightLine:
    def test_every_method_fails_onto_the_same_line(self, small_city, trained_kamel):
        """Section 8's failure is one line for every method: a gap none of
        them can serve (off the map, off the history, endpoints unseen)
        gets the same interior from each, timestamps included."""
        a, b = Point(90_000.0, 123.4, t=5.0), Point(91_037.5, 611.9, t=97.25)
        gap = Trajectory("off", [a, b])
        history = [
            Trajectory(f"h{k}", [Point(i * 25.0, float(k), t=float(i)) for i in range(40)])
            for k in range(3)
        ]
        results = {
            "linear": LinearImputer(100.0).impute(gap),
            "trimpute": TrImpute(maxgap_m=100.0).fit(history).impute(gap),
            "mapmatch": HmmMapMatcher(small_city).impute(gap),
            "kamel": trained_kamel.impute(gap),
        }
        assert trained_kamel.config.maxgap_m == 100.0
        (kamel_segment,) = results["kamel"].segments
        assert kamel_segment.fallback_reason == "endpoint_unseen"
        expected = results["linear"].trajectory.points
        assert len(expected) == 2 + 11  # 1,146.7 m at <= 100 m spacing
        assert all(p.t is not None for p in expected)
        for name, result in results.items():
            assert result.failure_rate == 1.0, name
            assert result.trajectory.points == expected, name


class TestSublineHelpers:
    GEOM = [Point(0, 0), Point(100, 0), Point(100, 100)]

    def test_point_at_interior(self):
        p = _point_at(self.GEOM, 150.0)
        assert (p.x, p.y) == (100.0, 50.0)

    def test_point_at_clamps(self):
        assert _point_at(self.GEOM, -1.0) == self.GEOM[0]
        assert _point_at(self.GEOM, 999.0) == self.GEOM[-1]

    def test_subline_includes_interior_vertices(self):
        sub = _subline(self.GEOM, 50.0, 150.0)
        assert [(p.x, p.y) for p in sub] == [(50, 0), (100, 0), (100, 50)]

    def test_subline_within_one_segment(self):
        sub = _subline(self.GEOM, 10.0, 20.0)
        assert [(p.x, p.y) for p in sub] == [(10, 0), (20, 0)]


class TestMapMatch:
    def test_validation(self, small_city):
        with pytest.raises(ValueError):
            HmmMapMatcher(small_city, maxgap_m=0.0)

    def test_name(self, small_city):
        assert HmmMapMatcher(small_city).name == "MapMatch"

    def test_match_snaps_to_network(self, small_city, small_dataset):
        matcher = HmmMapMatcher(small_city)
        traj = small_dataset.trajectories[0]
        matched = matcher.match(traj)
        hits = [m for m in matched if m is not None]
        assert len(hits) >= 0.9 * len(traj)
        for m in hits[:10]:
            assert m.distance_m <= 50.0

    def test_impute_follows_network(self, small_city, small_dataset):
        matcher = HmmMapMatcher(small_city)
        truth = small_dataset.trajectories[1]
        sparse = truth.sparsify(500.0)
        result = matcher.impute(sparse)
        # Route points are spaced <= maxgap; the jump from a noisy GPS
        # anchor onto the matched route adds up to the noise magnitude.
        assert result.trajectory.max_gap() <= 100.0 + 30.0
        # Imputed points lie on (or very near) the road network.
        for p in result.trajectory.points[:: max(1, len(result.trajectory) // 10)]:
            projected = small_city.project(p, radius=100.0)
            assert projected is not None
            assert projected.distance_m <= 40.0

    def test_near_perfect_accuracy(self, small_city, small_dataset):
        """Map matching knows the network: it is the paper's upper bound."""
        from repro.eval.metrics import recall

        matcher = HmmMapMatcher(small_city)
        truth = small_dataset.trajectories[2]
        sparse = truth.sparsify(500.0)
        result = matcher.impute(sparse)
        assert recall(truth, result.trajectory, 100.0, 50.0) > 0.9

    def test_unmatched_points_fall_back(self, small_city):
        matcher = HmmMapMatcher(small_city)
        off_map = Trajectory(
            "off", [Point(90_000.0, 0.0, t=0.0), Point(91_000.0, 0.0, t=90.0)]
        )
        result = matcher.impute(off_map)
        assert result.failure_rate == 1.0

    def test_short_trajectory(self, small_city):
        matcher = HmmMapMatcher(small_city)
        single = Trajectory("s", [Point(0, 0)])
        assert matcher.impute(single).num_segments == 0
