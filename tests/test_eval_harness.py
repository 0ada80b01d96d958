"""Tests for the experiment harness, workloads, and segment analysis."""

import pytest

from repro.baselines import LinearImputer
from repro.eval.harness import (
    ExperimentRunner,
    Workload,
    build_workload,
    classify_segments,
    kamel_builder,
    linear_builder,
    score_segments,
    trimpute_builder,
    _split_by_anchor_points,
)
from repro.geo import Point, Trajectory


def line(tid="t", n=30, spacing=50.0):
    return Trajectory(tid, [Point(i * spacing, 0.0, t=float(i * 5)) for i in range(n)])


class TestSparsifyIndices:
    def test_matches_trajectory_sparsify(self):
        traj = line(n=40)
        kept = traj.sparsify_indices(500.0)
        via_indices = [traj.points[i] for i in kept]
        assert tuple(via_indices) == traj.sparsify(500.0).points

    def test_endpoints_always_kept(self):
        traj = line(n=40)
        kept = traj.sparsify_indices(10_000.0)
        assert kept[0] == 0 and kept[-1] == len(traj) - 1

    def test_short_trajectory(self):
        traj = line(n=2)
        assert traj.sparsify_indices(500.0) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            line().sparsify_indices(0.0)


class TestWorkload:
    def test_build_splits_and_sparsifies(self, small_dataset):
        workload = build_workload(small_dataset, sparse_distance_m=400.0, max_test=4)
        assert len(workload.test_truth) == 4
        assert len(workload.test_sparse) == 4
        for truth, sparse in zip(workload.test_truth, workload.test_sparse):
            assert len(sparse) <= len(truth)

    def test_with_sparseness_changes_only_sparse(self, small_dataset):
        base = build_workload(small_dataset, sparse_distance_m=400.0, max_test=4)
        wider = base.with_sparseness(800.0)
        assert wider.test_truth == base.test_truth
        assert wider.sparse_distance_m == 800.0
        assert sum(len(t) for t in wider.test_sparse) <= sum(
            len(t) for t in base.test_sparse
        )

    def test_with_delta(self, small_dataset):
        base = build_workload(small_dataset, max_test=2)
        assert base.with_delta(25.0).delta_m == 25.0

    def test_with_train(self, small_dataset):
        base = build_workload(small_dataset, max_test=2)
        reduced = base.with_train(base.train[:5])
        assert len(reduced.train) == 5


class TestRunner:
    def test_run_linear(self, small_dataset):
        workload = build_workload(small_dataset, sparse_distance_m=400.0, max_test=3)
        runner = ExperimentRunner(workload)
        scores = runner.run("Linear", linear_builder())
        assert scores.method == "Linear"
        assert scores.scores.failure_rate == 1.0
        assert 0.0 <= scores.scores.recall <= 1.0

    def test_training_cached(self, small_dataset):
        workload = build_workload(small_dataset, sparse_distance_m=400.0, max_test=2)
        runner = ExperimentRunner(workload)
        imputer1, _ = runner.train("TrImpute", trimpute_builder())
        imputer2, _ = runner.train("TrImpute", trimpute_builder())
        assert imputer1 is imputer2

    def test_shared_trained_across_runners(self, small_dataset):
        workload = build_workload(small_dataset, sparse_distance_m=400.0, max_test=2)
        shared: dict = {}
        r1 = ExperimentRunner(workload, trained=shared)
        r1.train("Linear", linear_builder())
        r2 = ExperimentRunner(workload.with_sparseness(600.0), trained=shared)
        imputer, _ = r2.train("Linear", linear_builder())
        assert imputer is shared["Linear"][0]

    def test_kamel_builder_respects_workload_maxgap(self, small_dataset):
        workload = build_workload(
            small_dataset, sparse_distance_m=400.0, maxgap_m=80.0, max_test=1
        )
        system = kamel_builder()(workload)
        assert system.config.maxgap_m == 80.0


class TestSegmentAnalysis:
    def test_split_by_anchor_points(self):
        sparse = Trajectory("s", [Point(0, 0), Point(100, 0), Point(200, 0)])
        imputed = Trajectory(
            "s",
            [
                Point(0, 0),
                Point(50, 0),
                Point(100, 0),
                Point(150, 0),
                Point(200, 0),
            ],
        )
        pieces = _split_by_anchor_points(imputed, sparse)
        assert len(pieces) == 2
        assert [p.x for p in pieces[0]] == [0, 50, 100]
        assert [p.x for p in pieces[1]] == [100, 150, 200]

    def test_classify_straight_vs_curved(self, small_dataset):
        workload = build_workload(small_dataset, sparse_distance_m=400.0, max_test=4)
        imputer = LinearImputer(workload.maxgap_m)
        results = [imputer.impute(t) for t in workload.test_sparse]
        records = classify_segments(workload, results)
        assert records
        assert any(r.straight for r in records) or any(not r.straight for r in records)
        # Record counts match segment counts.
        expected = sum(len(k) - 1 for k in workload.test_kept_indices)
        assert len(records) == expected

    def test_linear_scores_better_on_straight_segments(self, small_dataset):
        """Sanity: straight-line imputation must look better on straight
        segments than on curved ones (the paper's Fig. 12-I/II premise)."""
        workload = build_workload(small_dataset, sparse_distance_m=500.0, max_test=10)
        imputer = LinearImputer(workload.maxgap_m)
        results = [imputer.impute(t) for t in workload.test_sparse]
        records = classify_segments(workload, results)
        straight = score_segments(
            [r for r in records if r.straight], workload.maxgap_m, 25.0
        )
        curved = score_segments(
            [r for r in records if not r.straight], workload.maxgap_m, 25.0
        )
        if straight.num_segments and curved.num_segments:
            assert straight.recall >= curved.recall

    def test_score_segments_empty(self):
        scores = score_segments([], 100.0, 50.0)
        assert scores.recall == 0.0
        assert scores.failure_rate == 0.0
