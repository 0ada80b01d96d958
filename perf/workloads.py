"""The four workloads: what each one is, and how its inputs are built.

**World and seed.** The city, the training split, the fitted system, the
pool of feed trajectories and (``serve_paced``) the arrival schedule come
from the *world seed* (7, the seed ``BENCH_serve.json`` was taken with),
by ``kamel loadtest``'s recipe. ``--seed`` drives the *request stream*
over that world: which pool trajectory is sent at which turn. Every seed
therefore asks for the same total work at the same instants, so the
spread across seeds measures the machine and not the luck of the draw —
a fresh 200-trajectory feed per seed moves ``traj_per_s`` by ±13 % on its
own, a fresh 200-arrival Poisson schedule moves ``serve_paced``'s p95 by
±15 % — and the seed-commit anchor can be checked on every run.
``--world-seed`` rebuilds everything from another seed, for showing that
a claim holds on inputs not used while a change was written.
"""

from __future__ import annotations

import pathlib
import time
from statistics import median
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.geo import Trajectory
from repro.io.serialize import save_kamel
from repro.roadnet.datasets import make_porto_like
from repro.roadnet.simulator import SimulatorConfig, TrajectorySimulator

from perf.calibrate import Calibrator

WORLD_SEED = 7
TRAIN_TRAJECTORIES = 200
WORKERS = 2
SAMPLE_INTERVAL_S = 15.0

ANCHOR = {"trajectories": 200, "segments": 597, "linear": 276, "model_calls": 55_100}
"""What the first 200 ``bulk_porto`` pool trajectories give on the seed
commit with world seed 7 (the figures in ``BENCH_serve.json``)."""


@dataclass(frozen=True)
class Workload:
    """One workload's shape and sizes."""

    name: str
    kind: str
    """``"bulk"`` (one caller on ``Kamel.impute``) or ``"serve"``
    (``ServingPool`` with ``WORKERS`` workers)."""
    gap_m: float
    feed: int
    """Requests per pass (= latency samples per pass)."""
    warmup: int = 40
    limit_ms: Optional[float] = None
    """Latency limit for ``within_limit_share`` (None: not applicable)."""
    rate_per_s: float = 0.0
    """Open-loop arrival rate; 0 sends back to back."""
    scale: float = 1.0
    """City extent multiplier of ``make_porto_like``."""
    trip_m: tuple[float, float] = (800.0, float("inf"))
    """Feed trip length range (the default is ``kamel loadtest``'s)."""
    config: dict = field(default_factory=dict)
    """``KamelConfig`` arguments."""
    array_share: float = 0.0
    """Share of the workload's time spent inside numpy: how much of the
    calibration comes from the array probe (:mod:`perf.calibrate`)."""
    setup_builds: int = 3
    """How many times the world is built; ``setup_s`` is the median."""

    @property
    def paced(self) -> bool:
        return self.rate_per_s > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk_porto", "bulk", gap_m=800.0, feed=200, limit_ms=150.0,
            config={"max_model_calls": 600},
        ),
        Workload(
            "bulk_bert", "bulk", gap_m=300.0, feed=200, limit_ms=250.0, scale=0.6,
            trip_m=(480.0, 1000.0),
            config={
                "model_backend": "bert", "bert_epochs": 30,
                "use_partitioning": False, "max_model_calls": 500,
            },
            # Training and the forward pass are numpy; a 6 s training is
            # steady enough read once and too dear to triple.
            array_share=0.8, setup_builds=1,
        ),
        Workload(
            "serve_flood", "serve", gap_m=200.0, feed=400,
            config={"max_model_calls": 600},
        ),
        Workload(
            "serve_paced", "serve", gap_m=200.0, feed=200, limit_ms=100.0,
            rate_per_s=40.0, config={"max_model_calls": 600},
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same shape at sizes that run in seconds (``--smoke``)."""
    config = dict(workload.config)
    if "bert_epochs" in config:
        config["bert_epochs"] = 3
    return replace(workload, feed=24, warmup=4, config=config)


@dataclass
class World:
    """Everything a pass needs, built from the world seed."""

    system: Kamel
    feed: list[Trajectory]
    """Sparse request trajectories, in pool order."""
    dense: list[Trajectory]
    """Their ground truth, same order."""
    warm: list[Trajectory]
    """Warm-up requests (ids disjoint from the feed's)."""
    model_dir: Optional[pathlib.Path]
    timings: dict[str, float]


def build_world(
    workload: Workload, world_seed: int, workdir: pathlib.Path, calibrator: Calibrator
) -> World:
    """Dataset, fit, feed and (for serve) the saved model, each timed
    (calibrated seconds, see :mod:`perf.calibrate`)."""
    timings: dict[str, float] = {}

    def timed(part: str, build):
        calibrator.tick(force=True)
        started = time.perf_counter()
        built = build()
        ended = time.perf_counter()
        calibrator.tick(force=True)
        timings[part] = (ended - started) * calibrator.scale(started, ended)
        return built

    def make_dataset():
        dataset = make_porto_like(
            n_trajectories=TRAIN_TRAJECTORIES, scale=workload.scale, seed=world_seed
        )
        return dataset, dataset.split(seed=1)[0]

    def make_feed():
        simulator = TrajectorySimulator(
            dataset.network,
            SimulatorConfig(
                sample_interval_s=SAMPLE_INTERVAL_S,
                min_trip_length_m=workload.trip_m[0],
                max_trip_length_m=workload.trip_m[1],
                seed=world_seed + 101,
            ),
        )
        dense = simulator.simulate(workload.feed + workload.warmup, id_prefix="load")
        return dense, [t.sparsify(workload.gap_m) for t in dense]

    dataset, train = timed("dataset_s", make_dataset)
    system = timed("fit_s", lambda: Kamel(KamelConfig(**workload.config)).fit(train))
    dense, sparse = timed("feed_s", make_feed)
    model_dir = None
    timings["save_s"] = 0.0
    if workload.kind == "serve":
        model_dir = workdir / "model"
        timed("save_s", lambda: save_kamel(system, model_dir))

    n = workload.feed
    return World(system, sparse[:n], dense[:n], sparse[n:], model_dir, timings)


def timed_setup(
    workload: Workload, world_seed: int, workdir: pathlib.Path, calibrator: Calibrator
) -> tuple[World, dict[str, float]]:
    """Build the world ``workload.setup_builds`` times and keep the median
    of each part: a sub-second set-up read once is mostly noise. The
    count is fixed per workload, never timed: a run that builds twice
    where the next builds three times differs in peak memory too."""
    runs: list[dict[str, float]] = []
    for build in range(workload.setup_builds):
        world = build_world(workload, world_seed, workdir / f"world-{build}", calibrator)
        runs.append(world.timings)
    parts = {key: median([run[key] for run in runs]) for key in runs[0]}
    parts["world_s"] = sum(parts.values())
    parts["repeats"] = float(len(runs))
    return world, parts
