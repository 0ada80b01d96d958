"""``bulk_*``: one caller imputing a corpus through ``Kamel.impute``."""

from __future__ import annotations

import time
from statistics import median
from typing import Optional, Sequence

from repro.core.result import ImputationResult

from perf.calibrate import Calibrator
from perf.common import (
    Violations,
    check_output,
    closed_spacing_m,
    keep_going,
    latency_metrics,
    median_of_passes,
    outcome_layers,
    peak_rss_mb,
    quality_metrics,
    results_digest,
    span_layers,
)
from perf.trace import SpanLog, traced
from perf.workloads import ANCHOR, WORLD_SEED, Workload, World


def _timed_pass(
    world: World, order: Sequence[int], calibrator: Calibrator,
    log: Optional[SpanLog] = None,
) -> tuple[float, float, float, list[float], list[float], list[Optional[ImputationResult]]]:
    """Impute the feed once, in ``order``: start, wall s, CPU s, each
    request's send time and latency (s), results (None where ``impute``
    raised). The calibration probe runs between requests, and what it
    took is left out of wall and CPU."""
    system, feed = world.system, world.feed
    clock = time.perf_counter
    sent_at: list[float] = []
    latencies: list[float] = []
    results: list[Optional[ImputationResult]] = []
    calibrator.tick(force=True)
    cpu_started = time.process_time()
    started = clock()
    probing = 0.0
    for index in order:
        probing += calibrator.tick()
        sent = clock()
        try:
            if log is None:
                result = system.impute(feed[index])
            else:
                with log.request(index):
                    result = system.impute(feed[index])
        except Exception:  # noqa: BLE001 - a raise is a failed operation, counted by the caller
            result = None
        latencies.append(clock() - sent)
        sent_at.append(sent)
        results.append(result)
    wall = clock() - started - probing
    cpu = time.process_time() - cpu_started - probing
    calibrator.tick(force=True)
    return started, wall, cpu, sent_at, latencies, results


def _anchor_counts(order: Sequence[int], results: Sequence[ImputationResult]) -> dict[str, int]:
    """Segments, linear fallbacks and model calls over the first 200
    pool trajectories, whatever order they were sent in."""
    chosen = [r for index, r in zip(order, results) if index < ANCHOR["trajectories"]]
    return {
        "trajectories": len(chosen),
        "segments": sum(r.num_segments for r in chosen),
        "linear": sum(r.num_failed for r in chosen),
        "model_calls": sum(r.total_model_calls for r in chosen),
    }


def run(
    workload: Workload,
    world: World,
    setup: dict[str, float],
    order: Sequence[int],
    world_seed: int,
    calibrator: Calibrator,
    seconds: float,
    trace: bool,
    strict: bool,
) -> dict:
    system, feed = world.system, world.feed
    n = len(order)
    ids = [feed[index].traj_id for index in order]
    violations = Violations()
    spacing = closed_spacing_m(system)
    digests: list[str] = []

    def checked_pass(log: Optional[SpanLog] = None) -> tuple[dict[str, float], list[ImputationResult]]:
        """One pass, its outputs checked: (end-to-end row, results)."""
        started, raw_wall, cpu, sent_at, latencies, results = _timed_pass(
            world, order, calibrator, log
        )
        ends = [a + b for a, b in zip(sent_at, latencies)]
        factor = calibrator.scale(started, ends[-1])
        latencies = [
            value * f * 1e3 for value, f in zip(latencies, calibrator.scales(sent_at, ends))
        ]
        wall, cpu = raw_wall * factor, cpu * factor
        violations.add("Kamel.impute raised", sum(1 for r in results if r is None))
        for index, result in zip(order, results):
            if result is not None:
                problem = check_output(feed[index], result, spacing, system.config.maxgap_m)
                if problem:
                    violations.add(problem)
        done = [(t, r) for t, r in zip(ids, results) if r is not None]
        digests.append(results_digest([t for t, _ in done], [[r] for _, r in done]))
        row = {
            "calibration": factor,
            "raw_wall_s": raw_wall,
            "wall_s": wall,
            "cpu_s": cpu,
            "request_wall_s": sum(latencies) / 1e3,
            "traj_per_s": n / wall,
            "cpu_ms_per_traj": cpu * 1e3 / n,
            "latency_samples": float(len(done)),
        }
        row.update(latency_metrics(
            [v for v, r in zip(latencies, results) if r is not None],
            n, workload.limit_ms, strict,
        ))
        return row, [r for _, r in done]

    for trajectory in world.warm:
        system.impute(trajectory)

    passes: list[dict[str, float]] = []
    results: list[ImputationResult] = []
    while keep_going([p["raw_wall_s"] for p in passes], seconds):
        row, results = checked_pass()
        passes.append(row)

    end_to_end = median_of_passes(passes)
    # Before the traced pass: its spans are the harness's memory, not the
    # program's.
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    info: dict = {"passes": passes, "latency_samples_per_pass": n}
    complete = len(results) == n
    if complete:
        end_to_end.update(
            quality_metrics([world.dense[i] for i in order], [[r] for r in results])
        )
    if (
        complete and workload.name == "bulk_porto"
        and world_seed == WORLD_SEED and n >= ANCHOR["trajectories"]
    ):
        counts = _anchor_counts(order, results)
        info["anchor"] = {"found": counts, "expected": ANCHOR}
        if counts != ANCHOR:
            violations.add(f"seed-commit anchor drifted: {counts} != {ANCHOR}")

    layers: dict[str, float] = {}
    spans = None
    if trace:
        spans = SpanLog()
        with traced(system, spans):
            row, results = checked_pass(spans)
        info["traced_pass"] = row
        untraced = median([p["wall_s"] for p in passes])
        layers.update(span_layers(spans, row["request_wall_s"], row["calibration"]))
        layers.update(outcome_layers(results, strict))
        layers["trace.overhead_share"] = (row["wall_s"] - untraced) / untraced

    if len(set(digests)) > 1:
        violations.add(f"output digest differs between passes: {sorted(set(digests))}")
    info["digest"] = digests[0]
    end_to_end["setup_s"] = setup["world_s"]
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": n * len(digests),
        "violations": violations,
        "info": info,
        "spans": spans,
    }
