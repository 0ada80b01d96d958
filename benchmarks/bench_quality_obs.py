"""Quality-observability overhead and signal quality.

Quality observability is off by default, and the impute hot loop then
pays exactly one ``is None`` branch per hook —
``tests/test_golden_counters.py`` holds the disabled path honest via its
exact model-call counters. This benchmark covers the *enabled* side: what drift tracking
and calibration bookkeeping cost per imputed batch, and whether the
signals behave on an in-distribution workload (serving traffic drawn
from the training city must stay under the drift limit, and the
ground-truth ECE must be a sane probability-scale number). The
``repro.drift.*`` / ``repro.quality.*`` gauges it records land in the
module's ``--metrics-out`` snapshot like every other bench module's.
"""

import time

import pytest

from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.eval.figures import Scale, porto_workload
from repro.eval.harness import calibrate
from repro.obs.drift import DEFAULT_DRIFT_LIMIT

from conftest import run_once, show


def _run(bench_scale):
    workload = porto_workload(bench_scale).with_sparseness(800.0)
    system = Kamel(KamelConfig(maxgap_m=workload.maxgap_m)).fit(list(workload.train))
    sparse = list(workload.test_sparse)

    start = time.perf_counter()
    system.impute_batch(sparse)
    disabled_s = time.perf_counter() - start

    system.enable_quality_observability()
    start = time.perf_counter()
    results = system.impute_batch(sparse)
    enabled_s = time.perf_counter() - start

    ledger = calibrate(
        workload, results, tracker=system.quality_tracker, grid=system.tokenizer.grid
    )
    detector = system.drift_detector
    tracker = system.quality_tracker
    return {
        "impute_disabled_s": disabled_s,
        "impute_enabled_s": enabled_s,
        "ece": ledger.ece(),
        "scored_segments": ledger.total,
        "unseen_cell_mass": detector.scores.get("unseen_cell_mass", 0.0),
        "cells_tracked": len(tracker.spatial),
    }


@pytest.fixture(scope="module")
def quality_run(bench_scale: Scale):
    return _run(bench_scale)


def test_quality_obs_regenerate(benchmark, capsys, bench_scale):
    result = run_once(benchmark, _run, bench_scale)
    metrics = [
        "impute_disabled_s",
        "impute_enabled_s",
        "ece",
        "scored_segments",
        "unseen_cell_mass",
        "cells_tracked",
    ]
    show(
        capsys,
        "Quality observability: enabled-path cost and signals",
        "metric",
        metrics,
        {"quality_obs": [result[m] for m in metrics]},
    )
    assert result["scored_segments"] > 0
    assert result["cells_tracked"] > 0


def test_in_distribution_serving_stays_under_drift_limit(quality_run):
    # Serving traffic drawn from the training split's own city must not
    # look like drift; a breach here would mean false alarms everywhere.
    assert quality_run["unseen_cell_mass"] < DEFAULT_DRIFT_LIMIT


def test_ece_is_probability_scaled(quality_run):
    assert 0.0 <= quality_run["ece"] <= 1.0
