"""Evaluation: the paper's metrics, workloads, and experiment harness."""

from repro.eval.metrics import (
    EvaluationScores,
    evaluate_imputation,
    failure_rate,
    point_to_polyline_distance,
    precision,
    recall,
)
from repro.eval.harness import (
    ExperimentRunner,
    MethodScores,
    SegmentRecord,
    Workload,
    build_workload,
    classify_segments,
    score_segments,
)
from repro.eval.report import render_series, render_table

__all__ = [
    "EvaluationScores",
    "ExperimentRunner",
    "MethodScores",
    "SegmentRecord",
    "Workload",
    "build_workload",
    "classify_segments",
    "evaluate_imputation",
    "failure_rate",
    "point_to_polyline_distance",
    "precision",
    "recall",
    "render_series",
    "render_table",
    "score_segments",
]
