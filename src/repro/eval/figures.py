"""Per-figure experiment definitions (paper Section 8).

One function per table/figure of the paper's evaluation. Each returns a
plain dict of series keyed the way the paper's plots are, so benchmarks
can both assert on shapes and print paper-style rows. ``Scale`` controls
dataset/sweep sizes: ``Scale.small()`` finishes in seconds and is what the
benchmark suite runs; ``Scale.full()`` is the overnight setting.

Synthetic-city workloads stand in for Porto/Jakarta (see DESIGN.md); sweep
axes are scaled to the ~3 km cities (the paper's 500–4000 m sparseness on
a ~25 km city becomes 400–2000 m here).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.config import KamelConfig
from repro.eval.harness import (
    DEFAULT_BUILDERS,
    ExperimentRunner,
    Workload,
    build_workload,
    classify_segments,
    kamel_builder,
    score_segments,
)
from repro.roadnet.datasets import Dataset, make_jakarta_like, make_porto_like

METHODS = ("KAMEL", "TrImpute", "Linear", "MapMatch")


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    porto_trajectories: int = 800
    jakarta_trajectories: int = 150
    max_test: int = 8
    sparseness_m: tuple[float, ...] = (400.0, 800.0, 1200.0, 1600.0, 2000.0)
    deltas_m: tuple[float, ...] = (10.0, 25.0, 50.0, 75.0, 100.0)
    default_sparseness_m: float = 800.0
    porto_delta_m: float = 50.0
    jakarta_delta_m: float = 25.0
    maxgap_m: float = 100.0

    @classmethod
    def small(cls) -> "Scale":
        """Benchmark-suite sizing: every figure in seconds, shapes intact."""
        return cls(
            porto_trajectories=800,
            jakarta_trajectories=150,
            max_test=5,
            sparseness_m=(400.0, 800.0, 1600.0),
            deltas_m=(10.0, 25.0, 50.0, 100.0),
        )

    @classmethod
    def full(cls) -> "Scale":
        return cls(
            porto_trajectories=1600,
            jakarta_trajectories=300,
            max_test=15,
        )


@functools.lru_cache(maxsize=8)
def _dataset(name: str, n: int) -> Dataset:
    if name == "porto":
        return make_porto_like(n_trajectories=n)
    if name == "jakarta":
        return make_jakarta_like(n_trajectories=n)
    raise ValueError(f"unknown dataset {name!r}")


def porto_workload(scale: Scale) -> Workload:
    return build_workload(
        _dataset("porto", scale.porto_trajectories),
        sparse_distance_m=scale.default_sparseness_m,
        maxgap_m=scale.maxgap_m,
        delta_m=scale.porto_delta_m,
        max_test=scale.max_test,
    )


def jakarta_workload(scale: Scale) -> Workload:
    return build_workload(
        _dataset("jakarta", scale.jakarta_trajectories),
        sparse_distance_m=scale.default_sparseness_m,
        maxgap_m=scale.maxgap_m,
        delta_m=scale.jakarta_delta_m,
        max_test=scale.max_test,
    )


def _run_methods(
    workload: Workload,
    methods: Sequence[str] = METHODS,
    trained: Optional[dict] = None,
) -> dict[str, dict[str, float]]:
    runner = ExperimentRunner(workload, trained=trained)
    out: dict[str, dict[str, float]] = {}
    for name in methods:
        scores = runner.run_default(name)
        out[name] = {
            "recall": scores.scores.recall,
            "precision": scores.scores.precision,
            "failure_rate": scores.scores.failure_rate,
            "train_time_s": scores.train_time_s,
            "impute_time_s": scores.impute_time_s,
        }
    return out


# -- Figure 9: impact of data sparseness -------------------------------------


def fig9_sparseness(
    scale: Optional[Scale] = None, methods: Sequence[str] = METHODS
) -> dict:
    """Recall/precision/failure vs Sparse_distance, both datasets."""
    scale = scale or Scale.small()
    out: dict = {"sparseness_m": list(scale.sparseness_m), "datasets": {}}
    for dataset_name, workload in (
        ("porto-like", porto_workload(scale)),
        ("jakarta-like", jakarta_workload(scale)),
    ):
        series: dict[str, dict[str, list[float]]] = {
            m: {"recall": [], "precision": [], "failure_rate": []} for m in methods
        }
        trained: dict = {}
        for sparseness in scale.sparseness_m:
            results = _run_methods(workload.with_sparseness(sparseness), methods, trained)
            for m in methods:
                for metric in ("recall", "precision", "failure_rate"):
                    series[m][metric].append(results[m][metric])
        out["datasets"][dataset_name] = series
    return out


# -- Figure 10: impact of the accuracy threshold ------------------------------


def fig10_threshold(
    scale: Optional[Scale] = None, methods: Sequence[str] = METHODS
) -> dict:
    """Recall/precision vs delta, both datasets.

    Imputation runs once per dataset; only the scoring threshold sweeps
    (exactly how the paper evaluates this figure).
    """
    scale = scale or Scale.small()
    out: dict = {"deltas_m": list(scale.deltas_m), "datasets": {}}
    for dataset_name, workload in (
        ("porto-like", porto_workload(scale)),
        ("jakarta-like", jakarta_workload(scale)),
    ):
        runner = ExperimentRunner(workload)
        series: dict[str, dict[str, list[float]]] = {
            m: {"recall": [], "precision": []} for m in methods
        }
        for m in methods:
            runner.impute(m, DEFAULT_BUILDERS[m]())
        for delta in scale.deltas_m:
            scoped = ExperimentRunner(workload.with_delta(delta), trained=runner._trained)
            scoped._imputed = runner._imputed
            for m in methods:
                scores = scoped.run_default(m)
                series[m]["recall"].append(scores.scores.recall)
                series[m]["precision"].append(scores.scores.precision)
        out["datasets"][dataset_name] = series
    return out


# -- Figure 11: training and imputation time -----------------------------------


FIG11_METHODS = ("KAMEL", "TrImpute", "MapMatch")


def fig11_timing(scale: Optional[Scale] = None) -> dict:
    """Wall-clock training and imputation time per dataset and method
    (``FIG11_METHODS``)."""
    scale = scale or Scale.small()
    methods = FIG11_METHODS
    out: dict = {"datasets": {}}
    for dataset_name, workload in (
        ("porto-like", porto_workload(scale)),
        ("jakarta-like", jakarta_workload(scale)),
    ):
        results = _run_methods(workload, methods)
        out["datasets"][dataset_name] = {
            m: {
                "train_time_s": results[m]["train_time_s"],
                "impute_time_s": results[m]["impute_time_s"],
            }
            for m in methods
        }
    return out


# -- Figure 12-I/II: impact of road type ----------------------------------------


FIG12_ROAD_TYPE_METHODS = ("KAMEL", "TrImpute", "Linear")


def fig12_road_type(scale: Optional[Scale] = None) -> dict:
    """Straight vs curved segment metrics across sparseness (Jakarta),
    for ``FIG12_ROAD_TYPE_METHODS``."""
    scale = scale or Scale.small()
    methods = FIG12_ROAD_TYPE_METHODS
    workload = jakarta_workload(scale)
    out: dict = {"sparseness_m": list(scale.sparseness_m), "classes": {}}
    for road_class in ("straight", "curved"):
        out["classes"][road_class] = {
            m: {"recall": [], "precision": [], "failure_rate": [], "num_segments": []}
            for m in methods
        }
    trained: dict = {}
    for sparseness in scale.sparseness_m:
        scoped = workload.with_sparseness(sparseness)
        runner = ExperimentRunner(scoped, trained=trained)
        for m in methods:
            results, _ = runner.impute(m, DEFAULT_BUILDERS[m]())
            records = classify_segments(scoped, results)
            for road_class in ("straight", "curved"):
                subset = [r for r in records if r.straight == (road_class == "straight")]
                scores = score_segments(subset, scoped.maxgap_m, scoped.delta_m)
                bucket = out["classes"][road_class][m]
                bucket["recall"].append(scores.recall)
                bucket["precision"].append(scores.precision)
                bucket["failure_rate"].append(scores.failure_rate)
                bucket["num_segments"].append(len(subset))
    return out


# -- Figure 12-III: grid type -----------------------------------------------------


def fig12_grid_type(scale: Optional[Scale] = None) -> dict:
    """KAMEL with hexagons (H3-style) vs area-matched squares (S2-style)."""
    scale = scale or Scale.small()
    workload = jakarta_workload(scale)
    variants = {
        "Hexagons": KamelConfig(maxgap_m=scale.maxgap_m, grid_type="hex", cell_edge_m=75.0),
        # 120 m squares ~ the same cell area as 75 m hexagons (paper 8.5).
        "Squares": KamelConfig(maxgap_m=scale.maxgap_m, grid_type="square", cell_edge_m=120.0),
    }
    out: dict = {"sparseness_m": list(scale.sparseness_m), "variants": {}}
    trained: dict = {}
    for label, config in variants.items():
        series = {"recall": [], "precision": [], "failure_rate": []}
        for sparseness in scale.sparseness_m:
            scoped = workload.with_sparseness(sparseness)
            runner = ExperimentRunner(scoped, trained=trained)
            scores = runner.run(label, kamel_builder(config))
            series["recall"].append(scores.scores.recall)
            series["precision"].append(scores.scores.precision)
            series["failure_rate"].append(scores.scores.failure_rate)
        out["variants"][label] = series
    return out


# -- Figure 12-IV/V: training data properties ----------------------------------------


TRAINING_FRACTIONS = (1.0, 0.75, 0.5, 0.25)
TRAINING_SAMPLING_INTERVALS_S = (1.0, 15.0, 30.0, 60.0)


def fig12_training_size(scale: Optional[Scale] = None) -> dict:
    """KAMEL trained on 100/75/50/25 % of the training trajectories
    (``TRAINING_FRACTIONS``)."""
    scale = scale or Scale.small()
    workload = jakarta_workload(scale)
    out: dict = {"fractions": list(TRAINING_FRACTIONS), "series": {}}
    for fraction in TRAINING_FRACTIONS:
        cut = max(1, int(round(fraction * len(workload.train))))
        scoped = workload.with_train(workload.train[:cut])
        runner = ExperimentRunner(scoped)
        scores = runner.run(f"KAMEL-{int(fraction * 100)}%", kamel_builder())
        out["series"][f"{int(fraction * 100)}%"] = scores.scores.as_dict()
    return out


def fig12_training_density(scale: Optional[Scale] = None) -> dict:
    """KAMEL trained on down-sampled (1/15/30/60 s) training trajectories
    (``TRAINING_SAMPLING_INTERVALS_S``)."""
    scale = scale or Scale.small()
    workload = jakarta_workload(scale)
    out: dict = {"sampling_s": list(TRAINING_SAMPLING_INTERVALS_S), "series": {}}
    for interval in TRAINING_SAMPLING_INTERVALS_S:
        resampled = [t.resample_time(interval) for t in workload.train]
        scoped = workload.with_train(resampled)
        runner = ExperimentRunner(scoped)
        scores = runner.run(f"KAMEL-{interval:.0f}s", kamel_builder())
        out["series"][f"{interval:.0f}s"] = scores.scores.as_dict()
    return out


# -- Figure 12-VI: ablation ------------------------------------------------------------


def fig12_ablation(scale: Optional[Scale] = None) -> dict:
    """Full KAMEL vs No Part. / No Const. / No Multi. (Jakarta)."""
    scale = scale or Scale.small()
    workload = jakarta_workload(scale)
    variants = {
        "KAMEL": KamelConfig(maxgap_m=scale.maxgap_m),
        "No Part.": KamelConfig(maxgap_m=scale.maxgap_m, use_partitioning=False),
        "No Const.": KamelConfig(maxgap_m=scale.maxgap_m, use_constraints=False),
        "No Multi.": KamelConfig(maxgap_m=scale.maxgap_m, use_multipoint=False),
    }
    out: dict = {"sparseness_m": list(scale.sparseness_m), "variants": {}}
    trained: dict = {}
    for label, config in variants.items():
        series = {"recall": [], "precision": [], "failure_rate": []}
        for sparseness in scale.sparseness_m:
            scoped = workload.with_sparseness(sparseness)
            runner = ExperimentRunner(scoped, trained=trained)
            scores = runner.run(label, kamel_builder(config))
            series["recall"].append(scores.scores.recall)
            series["precision"].append(scores.scores.precision)
            series["failure_rate"].append(scores.scores.failure_rate)
        out["variants"][label] = series
    return out


# -- Figure 3(d): cell-size accuracy curve ------------------------------------------------


def fig3_cell_size(
    scale: Optional[Scale] = None,
    cell_sizes_m: Sequence[float] = (25.0, 50.0, 75.0, 150.0, 300.0),
) -> dict:
    """Imputation accuracy as a function of the hexagon edge length.

    Reproduces the Section 3.2 optimization curve: both very small and
    very large cells hurt; the optimum is interior.
    """
    scale = scale or Scale.small()
    workload = porto_workload(scale)
    out: dict = {"cell_sizes_m": list(cell_sizes_m), "series": {"recall": [], "precision": []}}
    for size in cell_sizes_m:
        config = KamelConfig(maxgap_m=scale.maxgap_m, cell_edge_m=size)
        runner = ExperimentRunner(workload)
        scores = runner.run(f"KAMEL-{size:.0f}m", kamel_builder(config))
        out["series"]["recall"].append(scores.scores.recall)
        out["series"]["precision"].append(scores.scores.precision)
    return out


ALL_FIGURES: dict[str, Callable[..., dict]] = {
    "fig9": fig9_sparseness,
    "fig10": fig10_threshold,
    "fig11": fig11_timing,
    "fig12-road-type": fig12_road_type,
    "fig12-grid-type": fig12_grid_type,
    "fig12-training-size": fig12_training_size,
    "fig12-training-density": fig12_training_density,
    "fig12-ablation": fig12_ablation,
    "fig3-cell-size": fig3_cell_size,
}
