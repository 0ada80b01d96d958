"""Experiment harness: workloads, method runners, per-segment analysis.

Builds the paper's evaluation protocol (Section 8): take a dataset, split
80/20, sparsify the test trajectories by imposing ``Sparse_distance``
gaps, impute them with each method, and score recall / precision / failure
rate at an accuracy threshold delta. The per-segment utilities support the
road-type study (Fig. 12-I/II), which classifies every test segment as
straight or curved and scores each class separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.baselines import HmmMapMatcher, LinearImputer, TrImpute
from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.core.result import ImputationResult, Imputer
from repro.eval.metrics import (
    EvaluationScores,
    evaluate_imputation,
    point_to_polyline_distance,
)
from repro.geo import Point, Trajectory
from repro.obs import instrument as obs
from repro.obs.tracing import span, trace_scope
from repro.roadnet.datasets import Dataset


@dataclass(frozen=True)
class Workload:
    """One evaluation setting: data split plus metric parameters."""

    name: str
    dataset: Dataset
    train: tuple[Trajectory, ...]
    test_truth: tuple[Trajectory, ...]
    test_sparse: tuple[Trajectory, ...]
    test_kept_indices: tuple[tuple[int, ...], ...]
    sparse_distance_m: float
    maxgap_m: float
    delta_m: float

    def with_sparseness(self, sparse_distance_m: float) -> "Workload":
        """Same split, different imposed gap size."""
        sparse, kept = _sparsify_set(self.test_truth, sparse_distance_m)
        return replace(
            self,
            test_sparse=sparse,
            test_kept_indices=kept,
            sparse_distance_m=sparse_distance_m,
        )

    def with_delta(self, delta_m: float) -> "Workload":
        return replace(self, delta_m=delta_m)

    def with_train(self, train: Sequence[Trajectory]) -> "Workload":
        return replace(self, train=tuple(train))


def _sparsify_set(
    truths: Sequence[Trajectory], sparse_distance_m: float
) -> tuple[tuple[Trajectory, ...], tuple[tuple[int, ...], ...]]:
    sparse = []
    kept_all = []
    for t in truths:
        kept = t.sparsify_indices(sparse_distance_m)
        sparse.append(t.with_points([t.points[i] for i in kept]))
        kept_all.append(tuple(kept))
    return tuple(sparse), tuple(kept_all)


def build_workload(
    dataset: Dataset,
    sparse_distance_m: float = 1000.0,
    maxgap_m: float = 100.0,
    delta_m: float = 50.0,
    max_test: Optional[int] = None,
) -> Workload:
    """The paper's protocol: split 80/20 (:meth:`Dataset.split`'s seeded
    default), then sparsify the test trajectories."""
    train, test = dataset.split()
    test = [t for t in test if len(t) >= 2]
    if max_test is not None:
        test = test[:max_test]
    sparse, kept = _sparsify_set(test, sparse_distance_m)
    return Workload(
        name=dataset.name,
        dataset=dataset,
        train=tuple(train),
        test_truth=tuple(test),
        test_sparse=sparse,
        test_kept_indices=kept,
        sparse_distance_m=sparse_distance_m,
        maxgap_m=maxgap_m,
        delta_m=delta_m,
    )


@dataclass(frozen=True)
class MethodScores:
    """One method's metrics plus wall-clock costs on a workload."""

    method: str
    scores: EvaluationScores
    train_time_s: float
    impute_time_s: float
    results: tuple[ImputationResult, ...] = ()


ImputerBuilder = Callable[[Workload], Imputer]
"""Builds *and trains* an imputer for a workload."""


def kamel_builder(config: Optional[KamelConfig] = None) -> ImputerBuilder:
    def build(workload: Workload) -> Imputer:
        cfg = config or KamelConfig(maxgap_m=workload.maxgap_m)
        return Kamel(cfg).fit(list(workload.train))

    return build


def trimpute_builder() -> ImputerBuilder:
    def build(workload: Workload) -> Imputer:
        return TrImpute(workload.maxgap_m).fit(list(workload.train))

    return build


def linear_builder() -> ImputerBuilder:
    def build(workload: Workload) -> Imputer:
        return LinearImputer(workload.maxgap_m)

    return build


def mapmatch_builder() -> ImputerBuilder:
    def build(workload: Workload) -> Imputer:
        return HmmMapMatcher(workload.dataset.network, workload.maxgap_m)

    return build


DEFAULT_BUILDERS: dict[str, Callable[[], ImputerBuilder]] = {
    "KAMEL": kamel_builder,
    "TrImpute": trimpute_builder,
    "Linear": linear_builder,
    "MapMatch": mapmatch_builder,
}


class ExperimentRunner:
    """Runs methods on workloads, caching trained imputers per workload.

    Training is expensive and independent of the metric parameters, so a
    trained imputer is reused when only ``delta`` changes (as the paper
    does when sweeping the accuracy threshold).
    """

    def __init__(
        self,
        workload: Workload,
        trained: Optional[dict[str, tuple[Imputer, float]]] = None,
    ) -> None:
        """``trained`` lets sweeps share trained imputers across runners.

        Training depends only on the train split and maxgap, so a sweep
        over sparseness or delta may train once and impute many times —
        exactly how the paper runs its figures.
        """
        self.workload = workload
        self._trained: dict[str, tuple[Imputer, float]] = (
            trained if trained is not None else {}
        )
        self._imputed: dict[str, tuple[tuple[ImputationResult, ...], float]] = {}

    def train(self, name: str, builder: ImputerBuilder) -> tuple[Imputer, float]:
        """Train (or reuse) a method; its wall time is both returned and
        recorded into the ``repro.eval.train_seconds`` histogram, so the
        figure scripts and the metrics snapshot report one measurement."""
        if name not in self._trained:
            with trace_scope():
                with span("eval.train", method=name, workload=self.workload.name):
                    with obs.stopwatch("repro.eval.train_seconds") as sw:
                        imputer = builder(self.workload)
            self._trained[name] = (imputer, sw.seconds)
        return self._trained[name]

    def impute(self, name: str, builder: ImputerBuilder) -> tuple[
        tuple[ImputationResult, ...], float
    ]:
        if name not in self._imputed:
            imputer, _ = self.train(name, builder)
            with trace_scope():
                with span("eval.impute", method=name, workload=self.workload.name):
                    with obs.stopwatch("repro.eval.impute_seconds") as sw:
                        results = tuple(
                            imputer.impute_batch(list(self.workload.test_sparse))
                        )
            self._imputed[name] = (results, sw.seconds)
        return self._imputed[name]

    def run(self, name: str, builder: ImputerBuilder) -> MethodScores:
        results, impute_time = self.impute(name, builder)
        _, train_time = self._trained[name]
        scores = evaluate_imputation(
            list(self.workload.test_truth),
            list(results),
            self.workload.maxgap_m,
            self.workload.delta_m,
        )
        return MethodScores(name, scores, train_time, impute_time, results)

    def run_default(self, name: str) -> MethodScores:
        return self.run(name, DEFAULT_BUILDERS[name]())


# -- per-segment analysis (road-type study, Fig. 12-I/II) --------------------


@dataclass(frozen=True)
class SegmentRecord:
    """One sparse-trajectory segment with everything needed to score it."""

    truth_points: tuple[Point, ...]
    imputed_points: tuple[Point, ...]
    failed: Optional[bool]
    """None when the gap was below maxgap (never imputed)."""
    straight: bool


def _denoised_arc_length(points: Sequence[Point], min_step_m: float = 75.0) -> float:
    """Arc length over a coarsened copy of ``points``.

    Raw GPS noise inflates arc length badly at dense sampling (a 5 m sigma
    on 11 m steps adds ~20 % per step), which would classify *every*
    segment as curved. Walking the polyline in >= ``min_step_m`` strides
    reduces the noise contribution to a fraction of a percent while
    preserving genuine road curvature at the scales that matter here.
    """
    if len(points) < 2:
        return 0.0
    arc = 0.0
    anchor = points[0]
    for p in points[1:-1]:
        if anchor.distance_to(p) >= min_step_m:
            arc += anchor.distance_to(p)
            anchor = p
    arc += anchor.distance_to(points[-1])
    return arc


STRAIGHTNESS_THRESHOLD_M = 15.0
"""How much longer than the straight line a straight segment's travelled
arc may be (see :func:`classify_segments`)."""


def classify_segments(
    workload: Workload, results: Sequence[ImputationResult]
) -> list[SegmentRecord]:
    """Split every test trajectory into per-segment records.

    A segment is *straight* when the Euclidean distance between its
    endpoints is within ``STRAIGHTNESS_THRESHOLD_M`` of the distance
    travelled along the (noise-coarsened) ground truth — the paper's
    criterion with the travelled arc standing in for the road-network
    distance (the simulated vehicle drives exactly on the network). The
    threshold is 15 m rather than the paper's 5 m to absorb the residual
    GPS-noise inflation of the arc estimate.
    """
    records: list[SegmentRecord] = []
    for truth, sparse, kept, result in zip(
        workload.test_truth, workload.test_sparse, workload.test_kept_indices, results
    ):
        failures = {o.start_index: o.failed for o in result.segments}
        pieces = _split_by_anchor_points(result.trajectory, sparse)
        for k in range(len(kept) - 1):
            lo, hi = kept[k], kept[k + 1]
            truth_points = truth.points[lo : hi + 1]
            arc = _denoised_arc_length(truth_points)
            euclid = truth_points[0].distance_to(truth_points[-1])
            records.append(
                SegmentRecord(
                    truth_points=tuple(truth_points),
                    imputed_points=tuple(pieces[k]),
                    failed=failures.get(k),
                    straight=(arc - euclid) <= STRAIGHTNESS_THRESHOLD_M,
                )
            )
    return records


def _split_by_anchor_points(
    imputed: Trajectory, sparse: Trajectory
) -> list[tuple[Point, ...]]:
    """Slice the imputed trajectory at the sparse anchor points.

    Imputers keep every sparse point in order, so the imputed sequence is
    anchor, interior*, anchor, interior*, ... — slice on coordinate
    equality with the next expected anchor.
    """
    pieces: list[tuple[Point, ...]] = []
    anchors = sparse.points
    current: list[Point] = []
    next_anchor = 1
    for p in imputed.points:
        current.append(p)
        if (
            next_anchor < len(anchors)
            and p.x == anchors[next_anchor].x
            and p.y == anchors[next_anchor].y
        ):
            pieces.append(tuple(current))
            current = [p]
            next_anchor += 1
    while len(pieces) < len(anchors) - 1:
        pieces.append(tuple(current) if current else ())
        current = []
    return pieces


def score_segments(
    records: Sequence[SegmentRecord],
    maxgap_m: float,
    delta_m: float,
) -> EvaluationScores:
    """Recall/precision/failure over a set of segment records."""
    recall_hits = recall_total = 0
    precision_hits = precision_total = 0
    failed = imputed = 0
    for rec in records:
        if len(rec.truth_points) < 2 or len(rec.imputed_points) < 2:
            continue
        truth_line = list(rec.truth_points)
        imputed_line = list(rec.imputed_points)
        for probe in Trajectory("t", truth_line).discretize(maxgap_m):
            recall_total += 1
            if point_to_polyline_distance(probe, imputed_line) <= delta_m:
                recall_hits += 1
        for probe in Trajectory("i", imputed_line).discretize(maxgap_m):
            precision_total += 1
            if point_to_polyline_distance(probe, truth_line) <= delta_m:
                precision_hits += 1
        if rec.failed is not None:
            imputed += 1
            if rec.failed:
                failed += 1
    return EvaluationScores(
        recall=recall_hits / recall_total if recall_total else 0.0,
        precision=precision_hits / precision_total if precision_total else 0.0,
        failure_rate=failed / imputed if imputed else 0.0,
        num_trajectories=0,
        num_segments=len(records),
    )
