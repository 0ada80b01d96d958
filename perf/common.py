"""What both workload kinds share: pass control, checks, metric arithmetic."""

from __future__ import annotations

import resource
from statistics import median
import sys
from collections import Counter
from typing import Iterable, Optional, Sequence

from repro.core.result import ImputationResult
from repro.eval import evaluate_imputation
from repro.geo import Trajectory

from perf.stats import MIN_BEYOND, coordinate_digest, percentile
from perf.trace import SpanLog

MIN_PASSES = 3
MAX_PASSES = 8
EVAL_MAXGAP_M = 100.0
EVAL_DELTA_M = 50.0

FALLBACK_REASONS = (
    "endpoint_unseen", "no_model", "search_failed", "deadline",
    "circuit_open", "rung_error", "brownout",
)
RUNGS = ("full", "reduced_beam", "counting", "linear")


def keep_going(pass_walls: Sequence[float], seconds: float) -> bool:
    """Three timed passes always; up to ``MAX_PASSES`` while one more
    would still fit in ``seconds`` of measuring — seconds as they passed
    (``raw_wall_s``), so that a slow hour does not make a run longer."""
    done = len(pass_walls)
    if done < MIN_PASSES:
        return True
    return done < MAX_PASSES and sum(pass_walls) + pass_walls[-1] <= seconds


def peak_rss_mb(largest_child_mb: float = 0.0) -> float:
    """``ru_maxrss`` of this process (KiB on Linux, bytes on macOS) plus
    the peak of its largest child, which the caller reads off the live
    child: ``RUSAGE_CHILDREN`` will not do, a spawned child's
    ``ru_maxrss`` starts at what its parent held when it forked."""
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit + largest_child_mb


class Violations:
    """Operations that failed a check, with a few of them spelled out."""

    def __init__(self) -> None:
        self.count = 0
        self.examples: list[str] = []

    def add(self, what: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.count += count
        if len(self.examples) < 20:
            self.examples.append(what if count == 1 else f"{what} (x{count})")


def latency_metrics(
    samples_ms: Sequence[float],
    sent: int,
    limit_ms: Optional[float],
    strict: bool,
) -> dict[str, float]:
    """p50/p95 of the samples and the share of *sent* requests that came
    back within the limit (a request with no sample missed it)."""
    beyond = MIN_BEYOND if strict else 0
    out = {
        "latency_p50_ms": percentile(samples_ms, 0.50, min_beyond=beyond),
        "latency_p95_ms": percentile(samples_ms, 0.95, min_beyond=beyond),
    }
    if limit_ms is not None:
        out["within_limit_share"] = sum(1 for v in samples_ms if v <= limit_ms) / sent
    return out


PER_PASS = (
    "traj_per_s", "cpu_ms_per_traj", "latency_p50_ms", "latency_p95_ms",
    "within_limit_share", "pool_start_s", "pool_stop_s",
)


def median_of_passes(passes: Sequence[dict[str, float]]) -> dict[str, float]:
    """The median pass's value of every ``PER_PASS`` name the rows carry."""
    return {
        name: median([p[name] for p in passes]) for name in PER_PASS if name in passes[0]
    }


# -- correctness ---------------------------------------------------------------


def check_output(
    sparse: Trajectory, result: ImputationResult, closed_spacing_m: float, maxgap_m: float
) -> Optional[str]:
    """Why this output is wrong, or None.

    The input points must survive in order, and between two of them that
    formed a gap the output must be spaced within ``closed_spacing_m``
    (imputed) or ``maxgap_m`` (straight-line fallback).
    """
    out = result.trajectory.points
    position: list[int] = []
    cursor = 0
    for point in sparse.points:
        while cursor < len(out) and out[cursor] != point:
            cursor += 1
        if cursor == len(out):
            return f"{sparse.traj_id}: input points lost or reordered"
        position.append(cursor)
        cursor += 1
    for outcome in result.segments:
        first = position[outcome.start_index]
        last = position[outcome.start_index + 1]
        widest = max(out[k].distance_to(out[k + 1]) for k in range(first, last))
        bound = maxgap_m if outcome.failed else closed_spacing_m
        if widest > bound + 1e-6:
            return (
                f"{sparse.traj_id}: segment {outcome.start_index} left a "
                f"{widest:.0f} m gap (bound {bound:.0f} m)"
            )
    return None


def closed_spacing_m(system) -> float:
    """How far apart two consecutive output points of an imputed segment
    may lie: the imputer closes gaps between *cell centroids* to its gap
    threshold, and detokenization moves each point at most one cell
    radius off its centroid."""
    grid = system.tokenizer.grid
    threshold = max(
        system.config.maxgap_m, grid.centroid_spacing_m, system.gap_threshold_m or 0.0
    )
    return threshold + 2.0 * grid.edge_length_m


def results_digest(ids: Sequence[str], results: Sequence[Sequence[ImputationResult]]) -> str:
    """Digest of every output coordinate, in trajectory-id order so that
    it does not depend on the order the seed sent the requests in."""
    return coordinate_digest(
        (traj_id, ((p.x, p.y, p.t) for r in group for p in r.trajectory.points))
        for traj_id, group in sorted(zip(ids, results), key=lambda pair: pair[0])
    )


# -- metrics read off the results ------------------------------------------------


def quality_metrics(
    dense: Sequence[Trajectory], results: Sequence[Sequence[ImputationResult]]
) -> dict[str, float]:
    """``failure_rate`` over all gap segments; ``recall``/``precision`` as
    ``evaluate_imputation(dense, results, 100, 50)`` over the requests
    that came back as exactly one trip (all of them, on these feeds)."""
    segments = sum(r.num_segments for group in results for r in group)
    failed = sum(r.num_failed for group in results for r in group)
    pairs = [(d, group[0]) for d, group in zip(dense, results) if len(group) == 1]
    scores = evaluate_imputation(
        [d for d, _ in pairs], [r for _, r in pairs], EVAL_MAXGAP_M, EVAL_DELTA_M
    )
    return {
        "failure_rate": failed / segments if segments else 0.0,
        "recall": scores.recall,
        "precision": scores.precision,
    }


def outcome_layers(results: Iterable[ImputationResult], strict: bool) -> dict[str, float]:
    """``imputation.*`` and ``ladder.*`` from the per-segment outcomes."""
    outcomes = [s for r in results for s in r.segments]
    n = len(outcomes)
    calls = [float(s.model_calls) for s in outcomes]
    total_calls = sum(calls)
    rungs = Counter(s.rung for s in outcomes)
    reasons = Counter(s.fallback_reason for s in outcomes if s.fallback_reason)
    out = {
        "imputation.segments": float(n),
        "imputation.calls_per_segment_mean": total_calls / n if n else 0.0,
        "imputation.calls_per_segment_p95": (
            percentile(calls, 0.95, min_beyond=MIN_BEYOND if strict else 0) if n else 0.0
        ),
        "imputation.wasted_call_share": (
            sum(s.model_calls for s in outcomes if s.failed) / total_calls
            if total_calls else 0.0
        ),
    }
    for rung in RUNGS:
        out[f"ladder.{rung}_share"] = rungs.get(rung, 0) / n if n else 0.0
    for reason in FALLBACK_REASONS:
        out[f"ladder.reason.{reason}"] = reasons.get(reason, 0) / n if n else 0.0
    return out


def span_layers(log: SpanLog, requests_wall_s: float, calibration: float) -> dict[str, float]:
    """The proxied layers' counts, busy time and ratios, and what is left
    of the (calibrated) request wall time once they are subtracted. Span
    times are scaled by the traced pass's ``calibration`` factor."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = log.counts
    calls, busy = log.totals()
    busy = {layer: seconds * calibration for layer, seconds in busy.items()}
    residual = log.root_self_s() * calibration
    return {
        "tokenization.calls": float(calls["tokenization"]),
        "tokenization.busy_s": busy["tokenization"],
        "partitioning.lookups": float(calls["partitioning"]),
        "partitioning.busy_s": busy["partitioning"],
        "partitioning.hit_share": ratio(counts.get("partitioning.hits", 0), calls["partitioning"]),
        "mlm.predict_calls": float(calls["mlm"]),
        "mlm.predict_busy_s": busy["mlm"],
        "mlm.predict_us_per_call": ratio(busy["mlm"] * 1e6, calls["mlm"]),
        "mlm.candidates_per_call": ratio(counts.get("mlm.candidates", 0), calls["mlm"]),
        "constraints.filter_calls": float(calls["constraints"]),
        "constraints.busy_s": busy["constraints"],
        "constraints.us_per_candidate": ratio(
            busy["constraints"] * 1e6, counts.get("constraints.in", 0)
        ),
        "constraints.pass_share": ratio(
            counts.get("constraints.out", 0), counts.get("constraints.in", 0)
        ),
        "constraints.empty_share": ratio(
            counts.get("constraints.empty", 0), calls["constraints"]
        ),
        "detokenization.calls": float(calls["detokenization"]),
        "detokenization.busy_s": busy["detokenization"],
        "detokenization.us_per_token": ratio(
            busy["detokenization"] * 1e6, counts.get("detokenization.tokens", 0)
        ),
        "core.residual_s": residual,
        "core.residual_share": ratio(residual, requests_wall_s),
    }
