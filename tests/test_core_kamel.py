"""System-level tests for the Kamel facade."""

import dataclasses
import logging
import math

import pytest

from repro import Kamel, KamelConfig
from repro.core import constraints, imputation
from repro.core.kamel import infer_max_speed
from repro.errors import ConfigError, EmptyInputError, NotFittedError
from repro.geo import Point, Trajectory, assign_times, linear_interior


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_type="octagon"),
            dict(model_backend="gpt"),
            dict(imputer="dfs"),
            dict(cell_edge_m=0.0),
            dict(maxgap_m=-1.0),
            dict(beam_size=0),
            dict(pyramid_levels=0),
            dict(pyramid_levels=9, pyramid_height=5),
            dict(model_threshold_k=0),
            dict(max_model_calls=0),
            dict(pyramid_root_extent_m=0.0),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            KamelConfig(**kwargs)

    def test_defaults_are_paper_defaults(self):
        cfg = KamelConfig()
        assert cfg.cell_edge_m == 75.0
        assert cfg.maxgap_m == 100.0
        assert cfg.beam_size == 10
        assert cfg.grid_type == "hex"
        # The values the paper fixes are constants beside their readers.
        assert constraints.CYCLE_WINDOW == 6
        assert constraints.CONE_HALF_ANGLE_RAD == math.radians(45.0)
        assert imputation.LENGTH_NORM_ALPHA == 1.0


class TestLifecycle:
    def test_unfitted_errors(self):
        system = Kamel()
        with pytest.raises(NotFittedError):
            system.impute(Trajectory("x", [Point(0, 0), Point(1, 1)]))
        with pytest.raises(NotFittedError):
            system.add_training([])

    def test_fit_empty_raises(self):
        with pytest.raises(EmptyInputError):
            Kamel().fit([])

    def test_fit_without_a_two_point_trajectory_raises(self):
        """Single fixes hold no movement to learn from: fit refuses them
        and the system stays unfitted, rather than fitting without
        constraints and failing on its first impute."""
        system = Kamel()
        singles = [Trajectory(name, (Point(0.0, 0.0, 0.0),)) for name in "ab"]
        with pytest.raises(EmptyInputError, match="at least two points"):
            system.fit(singles)
        assert not system.is_fitted

    def test_add_training_without_a_two_point_trajectory_is_a_no_op(self, small_split):
        train, _ = small_split
        system = Kamel(KamelConfig()).fit(train[:10])
        vocabulary = len(system.tokenizer.vocabulary)
        system.add_training([Trajectory("single", (Point(0.0, 0.0, 0.0),))])
        assert len(system._training_trajectories) == 10
        assert len(system.tokenizer.vocabulary) == vocabulary

    def test_fit_returns_self(self, small_split):
        train, _ = small_split
        system = Kamel(KamelConfig())
        assert system.fit(train[:20]) is system
        assert system.is_fitted
        assert system.name == "KAMEL"

    def test_repr(self, trained_kamel):
        assert "fitted" in repr(trained_kamel)

    def test_a_pyramid_that_maintains_no_model_warns_once(self, small_split, caplog):
        """Thresholds no cell can meet: fit succeeds, and says what it built."""
        train, _ = small_split
        unmet = KamelConfig(model_threshold_k=10**9)
        with caplog.at_level(logging.WARNING, logger="repro.core.kamel"):
            system = Kamel(unmet).fit(train[:20])
            Kamel(KamelConfig()).fit(train)  # maintains models: silent
            Kamel(dataclasses.replace(unmet, use_partitioning=False)).fit(train[:20])
        assert system.repository.num_models == 0
        (record,) = [r for r in caplog.records if "no model" in r.getMessage()]
        assert record.levelno == logging.WARNING
        assert record.data["model_threshold_k"] == 10**9
        assert record.data["pyramid_root_extent_m"] == unmet.pyramid_root_extent_m


class TestImputation:
    def test_impute_preserves_anchor_points(self, trained_kamel, small_split):
        _, test = small_split
        sparse = test[0].sparsify(500.0)
        result = trained_kamel.impute(sparse)
        out = result.trajectory.points
        anchor_iter = iter(out)
        assert all(p in anchor_iter for p in sparse.points)

    def test_impute_fills_every_gap(self, trained_kamel, small_split):
        _, test = small_split
        sparse = test[1].sparsify(500.0)
        result = trained_kamel.impute(sparse)
        assert result.trajectory.max_gap() <= 300.0  # bounded by gap threshold

    def test_short_trajectory_passthrough(self, trained_kamel):
        single = Trajectory("single", [Point(0, 0, t=0.0)])
        result = trained_kamel.impute(single)
        assert result.trajectory == single
        assert result.num_segments == 0

    def test_dense_trajectory_untouched(self, trained_kamel, small_split):
        _, test = small_split
        dense = test[0]
        result = trained_kamel.impute(dense)
        assert result.num_segments <= 1  # virtually no gaps to fill

    def test_unknown_area_falls_back_to_linear(self, trained_kamel):
        far = Trajectory(
            "far",
            [Point(50_000.0, 50_000.0, t=0.0), Point(51_000.0, 50_000.0, t=100.0)],
        )
        result = trained_kamel.impute(far)
        assert result.num_segments == 1
        assert result.num_failed == 1
        # Linear fallback still fills the gap densely.
        assert result.trajectory.max_gap() <= trained_kamel.config.maxgap_m + 1e-6

    def test_imputed_points_time_ordered(self, trained_kamel, small_split):
        _, test = small_split
        sparse = test[2].sparsify(500.0)
        result = trained_kamel.impute(sparse)
        assert result.trajectory.is_time_ordered()

    def test_impute_batch(self, trained_kamel, small_split):
        _, test = small_split
        sparse = [t.sparsify(500.0) for t in test[:3]]
        results = trained_kamel.impute_batch(sparse)
        assert len(results) == 3


class TestIncrementalTraining:
    def test_add_training_grows_vocabulary(self, small_split):
        train, _ = small_split
        system = Kamel(KamelConfig()).fit(train[:10])
        before = len(system.tokenizer.vocabulary)
        system.add_training(train[10:30])
        assert len(system.tokenizer.vocabulary) >= before

    def test_add_training_improves_or_keeps_models(self, small_split):
        train, _ = small_split
        system = Kamel(KamelConfig(model_threshold_k=50)).fit(train[:10])
        first = system.repository.num_models
        system.add_training(train[10:40])
        assert system.repository.num_models >= first


class TestAblationSwitches:
    def test_no_partitioning_uses_global_model(self, small_split):
        train, test = small_split
        system = Kamel(KamelConfig(use_partitioning=False)).fit(train[:30])
        assert system._global_model is not None
        assert system.repository.num_models == 0
        result = system.impute(test[0].sparsify(500.0))
        assert result.num_segments >= 0  # runs end to end

    def test_no_multipoint_leaves_gaps(self, small_split):
        train, test = small_split
        system = Kamel(KamelConfig(use_multipoint=False)).fit(train[:30])
        sparse = test[0].sparsify(600.0)
        result = system.impute(sparse)
        successful = [s for s in result.segments if not s.failed]
        for outcome in successful:
            assert outcome.imputed_points <= 1

    def test_no_constraints_still_runs(self, small_split):
        train, test = small_split
        system = Kamel(KamelConfig(use_constraints=False, max_model_calls=200)).fit(
            train[:30]
        )
        result = system.impute(test[0].sparsify(500.0))
        assert result.trajectory.max_gap() < 10_000.0


class TestHelpers:
    def test_infer_max_speed_percentile(self):
        traj = Trajectory(
            "t", [Point(i * 10.0, 0, t=float(i)) for i in range(50)]
        )  # constant 10 m/s
        assert infer_max_speed([traj]) == pytest.approx(10.0)

    def test_infer_max_speed_empty_fallback(self):
        assert infer_max_speed([]) == pytest.approx(14.0)

    def test_infer_max_speed_ignores_zero_dt(self):
        traj = Trajectory("t", [Point(0, 0, t=0.0), Point(100, 0, t=0.0)])
        assert infer_max_speed([traj]) == pytest.approx(14.0)

    def test_linear_interior_spacing(self):
        pts = linear_interior(Point(0, 0), Point(450, 0), 100.0)
        assert len(pts) == 4
        assert pts[0].x == pytest.approx(90.0)

    def test_linear_interior_short_gap(self):
        assert linear_interior(Point(0, 0), Point(50, 0), 100.0) == []

    def test_assign_times_by_arc_length(self):
        interior = [Point(100, 0), Point(200, 0)]
        timed = assign_times(Point(0, 0, t=0.0), Point(300, 0, t=30.0), interior)
        assert [p.t for p in timed] == pytest.approx([10.0, 20.0])

    def test_assign_times_missing_endpoint_time(self):
        interior = [Point(100, 0)]
        assert assign_times(Point(0, 0), Point(300, 0, t=30.0), interior) == interior
