"""Tests for the map-inference substrate and its evaluation."""

import pytest

from repro.errors import EmptyInputError
from repro.geo import Point, Trajectory
from repro.mapinference import (
    InferredMap,
    TrajectoryMapInference,
    evaluate_inferred_map,
)
from repro.roadnet.network import RoadNetwork


def road_trajectories(n=5, y_jitter=3.0):
    """n trips along the horizontal road y=0, x in [0, 1000]."""
    return [
        Trajectory(
            f"t{k}",
            [Point(x, (k % 3 - 1) * y_jitter, t=float(x)) for x in range(0, 1001, 20)],
        )
        for k in range(n)
    ]


@pytest.fixture()
def straight_network():
    net = RoadNetwork()
    net.add_node("a", Point(0, 0))
    net.add_node("b", Point(1000, 0))
    net.add_edge("a", "b")
    return net


class TestInference:
    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            TrajectoryMapInference().infer([])

    def test_cells_along_road(self):
        inferred = TrajectoryMapInference().infer(road_trajectories())
        assert inferred.num_cells >= 40  # 1000 m / 25 m cells
        for cell in inferred.occupied_cells(2):
            center = inferred.cell_center(cell)
            assert abs(center.y) < 40.0  # all cells hug the road

    def test_each_trajectory_votes_once_per_cell(self):
        # One trajectory crossing a cell many times still counts once.
        zigzag = Trajectory(
            "zig",
            [Point(5.0 + (i % 2), 5.0 + (i % 2), t=float(i)) for i in range(10)],
        )
        inferred = TrajectoryMapInference().infer([zigzag])
        assert max(
            inferred.visit_count(c) for c in inferred.occupied_cells(1)
        ) == 1

    def test_min_visits_threshold_filters_noise(self):
        trips = road_trajectories(4)
        outlier = Trajectory("o", [Point(500, 500, t=0.0), Point(520, 500, t=2.0)])
        inferred = TrajectoryMapInference().infer(trips + [outlier])
        all_cells = inferred.occupied_cells(1)
        supported = inferred.occupied_cells(2)
        assert supported < all_cells  # the outlier's cells drop out

    def test_rasterization_connects_sparse_points(self):
        """The chord between far-apart points is rasterized — the failure
        mode that motivates imputation."""
        sparse = Trajectory("s", [Point(0, 0, t=0.0), Point(1000, 1000, t=100.0)])
        inferred = TrajectoryMapInference().infer([sparse])
        diagonal_cell = inferred.cell_center(min(inferred.occupied_cells(1)))
        assert inferred.num_cells > 30  # the whole diagonal chord
        del diagonal_cell


class TestEvaluation:
    def test_perfect_inference_scores_high(self, straight_network):
        inferred = TrajectoryMapInference().infer(road_trajectories())
        scores = evaluate_inferred_map(inferred, straight_network)
        assert scores.recall > 0.9
        assert scores.precision > 0.9
        assert scores.f1 > 0.9

    def test_hallucinated_roads_hurt_precision(self, straight_network):
        trips = road_trajectories(3)
        ghosts = [
            Trajectory(
                f"g{k}", [Point(x, 500.0, t=float(x)) for x in range(0, 1001, 20)]
            )
            for k in range(3)
        ]
        inferred = TrajectoryMapInference().infer(trips + ghosts)
        scores = evaluate_inferred_map(inferred, straight_network)
        assert scores.precision < 0.7
        assert scores.recall > 0.9

    def test_missing_roads_hurt_recall(self, straight_network):
        half = [
            Trajectory(
                f"h{k}", [Point(x, 0.0, t=float(x)) for x in range(0, 501, 20)]
            )
            for k in range(3)
        ]
        inferred = TrajectoryMapInference().infer(half)
        scores = evaluate_inferred_map(inferred, straight_network)
        assert scores.recall < 0.7
        assert scores.precision > 0.9

    def test_empty_map_scores_zero(self, straight_network):
        inferred = InferredMap(25.0, {})
        scores = evaluate_inferred_map(inferred, straight_network)
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_empty_network_rejected(self):
        inferred = InferredMap(25.0, {(0, 0): 5})
        with pytest.raises(EmptyInputError):
            evaluate_inferred_map(inferred, RoadNetwork())


class TestEndToEndMotivation:
    def test_imputation_improves_inferred_map(self, small_dataset, small_split, trained_kamel):
        """The paper's central motivation, quantified: map inference from
        KAMEL-imputed trajectories beats map inference from sparse ones."""
        _, test = small_split
        test = test[:10]
        sparse = [t.sparsify(500.0) for t in test]
        imputed = [r.trajectory for r in trained_kamel.impute_batch(sparse)]

        engine = TrajectoryMapInference()
        sparse_scores = evaluate_inferred_map(
            engine.infer(sparse), small_dataset.network, min_visits=1
        )
        imputed_scores = evaluate_inferred_map(
            engine.infer(imputed), small_dataset.network, min_visits=1
        )
        assert imputed_scores.precision > sparse_scores.precision
        assert imputed_scores.f1 > sparse_scores.f1
