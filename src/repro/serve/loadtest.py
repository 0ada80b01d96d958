"""Synthetic load generation against the sharded serving pool.

``kamel loadtest`` answers the scalability question with numbers instead
of architecture diagrams: train (or reuse) a porto-like system, drive N
sparse synthetic trajectories from the roadnet simulator through a
:class:`~repro.serve.pool.ServingPool` at a target rate, and report
sustained trajectories/sec, p50/p99 submit-to-result latency, per-rung
degradation counts, and worker-death/replay accounting.

Correctness rides along: with ``verify=True`` (the default) the same
feed also runs through the plain single-process
:class:`~repro.core.streaming.StreamingImputationService` and every
pooled output is compared **bit-for-bit** against the baseline —
imputation is deterministic, sharding must not change a single
coordinate. The report's ``mismatches`` must be 0 and ``lost`` must be 0
for the run to count as passing.

Overload mode (``offered_tps`` / ``offered_multiplier``, the CLI's
``--offered-tps 2x``) flips the question from "how fast is it?" to
"what breaks first?": the pool runs with bounded admission queues, a
per-request deadline, and the brownout controller, and is driven
*past* capacity on purpose. The report then accounts for every
submitted trajectory as completed, shed (typed ``OverloadError``
results), or expired-in-queue — overload may refuse work, never lose
it — and records the brownout step-down/step-up cycle. Bit-for-bit
verification is disabled in this mode because deadline and brownout
degradation change outputs by design.

The run is gated on its exit code (0 lost, 0 mismatches, the CLI's
``--max-p99-ms`` / ``--min-shed``) and read from the ``--json`` report;
throughput and latency are *compared* across commits by ``perf/run.py``
(``serve_flood`` / ``serve_paced``), not here. Throughput scaling is
machine-dependent (worker processes need cores to run on); latency
percentiles include queueing delay by design.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.errors import ConfigError
from repro.geo import Trajectory
from repro.io.serialize import load_kamel, save_kamel
from repro.obs import instrument as obs
from repro.obs.export import write_chrome_trace
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.resilience.journal import trajectory_to_payload
from repro.roadnet.datasets import make_porto_like
from repro.roadnet.simulator import SimulatorConfig, TrajectorySimulator
from repro.serve.overload import ADMISSION_POLICIES, ADMISSION_SHED, BrownoutConfig
from repro.serve.pool import ServeConfig, ServingPool

__all__ = ["LoadtestConfig", "LoadtestReport", "run_loadtest"]

_log = get_logger("serve.loadtest")


@dataclass(frozen=True)
class LoadtestConfig:
    """One reproducible loadtest scenario."""

    workers: int = 4
    trajectories: int = 200
    """Synthetic trajectories to drive through the pool."""
    rate_tps: float = 0.0
    """Target submission rate (trajectories/sec); 0 floods as fast as
    the router accepts."""
    sparseness_m: float = 800.0
    """Gap width imposed on the simulated (dense) trips before serving."""
    train_trajectories: int = 200
    """Trips in the porto-like training workload (when training here)."""
    seed: int = 7
    strategy: str = "hash"
    lru_capacity: int = 64
    max_model_calls: int = 600
    """Per-segment model-call budget for the trained system (bounds the
    loadtest's wall time without changing its determinism)."""
    verify: bool = True
    """Also run the single-process baseline and compare bit-for-bit."""
    kill_worker_after: Optional[int] = None
    """Chaos: shard 0 dies on its Nth task (exercises journal replay)."""
    journal: bool = True
    trace: bool = False
    """Workers ship span trees; the pool merges them (``trace_out``)."""
    trace_out: Optional[str] = None
    """Write the merged multi-worker Chrome trace here (implies nothing
    by itself — set ``trace`` too; the CLI couples them)."""
    flight_out: Optional[str] = None
    """Write the flight recorder's ``/slow`` payload (JSON) here — the
    file ``kamel tail`` reads offline."""
    flight_capacity: int = 64
    """Slowest requests the pool's flight recorder retains."""
    offered_tps: float = 0.0
    """Overload mode: drive the pool at this *offered* rate regardless of
    what it completes (admission control and deadlines absorb the
    excess). 0 disables overload mode (see ``offered_multiplier``)."""
    offered_multiplier: Optional[float] = None
    """Overload mode, self-calibrating: first measure the pool's
    sustained capacity on a short flood, then offer ``multiplier ×
    capacity`` (e.g. 2.0 ≈ "2x capacity"). Overrides ``offered_tps``."""
    calibrate_trajectories: int = 30
    """Trajectories in the capacity-calibration flood."""
    max_queue_depth: Optional[int] = None
    """Per-shard admission bound; defaults to 8 in overload mode."""
    admission: str = ADMISSION_SHED
    request_deadline_s: Optional[float] = None
    """Per-request deadline stamped on every envelope (overload mode
    reports expired-in-queue counts against it)."""
    brownout: bool = True
    """Run the pool's brownout controller (overload mode only)."""

    @property
    def overload(self) -> bool:
        """Whether this scenario drives the pool past capacity."""
        return self.offered_tps > 0 or self.offered_multiplier is not None

    def __post_init__(self) -> None:
        if self.trajectories < 1:
            raise ConfigError(
                f"trajectories must be >= 1, got {self.trajectories!r}"
            )
        if self.rate_tps < 0:
            raise ConfigError(f"rate_tps must be >= 0, got {self.rate_tps!r}")
        if self.offered_tps < 0:
            raise ConfigError(
                f"offered_tps must be >= 0, got {self.offered_tps!r}"
            )
        if self.offered_multiplier is not None and self.offered_multiplier <= 0:
            raise ConfigError(
                "offered_multiplier must be positive, got "
                f"{self.offered_multiplier!r}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ConfigError(
                "request_deadline_s must be positive, got "
                f"{self.request_deadline_s!r}"
            )


@dataclass
class LoadtestReport:
    """Everything one loadtest run measured."""

    workers: int
    strategy: str
    trajectories: int
    completed: int
    lost: int
    duplicates: int
    wall_s: float
    throughput_tps: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    rungs: dict[str, int] = field(default_factory=dict)
    segments: int = 0
    failed_segments: int = 0
    degraded_segments: int = 0
    model_calls: int = 0
    quarantined: int = 0
    worker_deaths: int = 0
    journal_replayed: int = 0
    worker_errors: int = 0
    verified: bool = False
    mismatches: int = 0
    single_wall_s: Optional[float] = None
    single_throughput_tps: Optional[float] = None
    speedup_vs_single: Optional[float] = None
    stages: dict[str, dict] = field(default_factory=dict)
    """Per-stage attribution (count/mean/p50/p99/max + exemplar trace
    id), from the pool's flight recorder."""
    traced_requests: int = 0
    """Results that arrived with worker span trees attached."""
    trace_out: Optional[str] = None
    flight_out: Optional[str] = None
    overload: bool = False
    """Whether this run intentionally drove the pool past capacity."""
    offered_tps: float = 0.0
    capacity_tps: Optional[float] = None
    """Measured sustained capacity (calibration flood), when available."""
    shed: int = 0
    expired: int = 0
    peak_queue_depth: int = 0
    max_queue_depth: Optional[int] = None
    admission: Optional[str] = None
    brownout: Optional[dict] = None
    """Final brownout controller state + transition log, when enabled."""

    @property
    def accounted(self) -> bool:
        """Every submitted trajectory ended as completed, shed, or
        expired — overload may refuse work but must never lose it."""
        return (
            self.lost == 0
            and self.completed + self.shed + self.expired == self.trajectories
        )

    @property
    def ok(self) -> bool:
        """Every input accounted for and (if verified) byte-identical."""
        return (
            self.accounted
            and self.mismatches == 0
            and self.completed > 0
        )

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["ok"] = self.ok
        out["accounted"] = self.accounted
        return out


def _make_feed(config: LoadtestConfig, dataset) -> list[Trajectory]:
    """Fresh synthetic traffic over the training city (ids disjoint from
    the training trips), sparsified the way the paper's evaluation does."""
    simulator = TrajectorySimulator(
        dataset.network,
        SimulatorConfig(sample_interval_s=15.0, seed=config.seed + 101),
    )
    dense = simulator.simulate(config.trajectories, id_prefix="load")
    return [t.sparsify(config.sparseness_m) for t in dense]


def _run_baseline(
    config: LoadtestConfig, model_dir: str, feed: list[Trajectory]
) -> tuple[dict[str, list[dict]], float]:
    """The single-process reference: same saved system, same feed."""
    system = load_kamel(model_dir)
    service = StreamingImputationService(system, StreamingConfig())
    outputs: dict[str, list[dict]] = {}
    started = time.perf_counter()
    for trajectory in feed:
        results = service.process(trajectory)
        outputs[trajectory.traj_id] = [
            trajectory_to_payload(r.trajectory) for r in results
        ]
    return outputs, time.perf_counter() - started


def _count_mismatches(
    baseline: dict[str, list[dict]], results: dict[str, dict]
) -> int:
    """Trajectories whose pooled output differs from the baseline at all
    (payloads are raw float lists, so equality is bit-for-bit)."""
    mismatches = 0
    for traj_id, expected in baseline.items():
        message = results.get(traj_id)
        if message is None or message.get("trips") != expected:
            mismatches += 1
    return mismatches


def _calibrate_capacity(
    config: LoadtestConfig, model_dir: str, dataset
) -> float:
    """Measure the pool's sustained capacity with a short flood.

    Runs a *separate* plain (unbounded, no-brownout) pool over a small
    disjoint feed and floods it; completed/wall is the trajectories/sec
    the fleet can actually absorb, which overload mode then multiplies
    to pick an offered rate guaranteed to exceed it.
    """
    simulator = TrajectorySimulator(
        dataset.network,
        SimulatorConfig(sample_interval_s=15.0, seed=config.seed + 202),
    )
    dense = simulator.simulate(config.calibrate_trajectories, id_prefix="cal")
    feed = [t.sparsify(config.sparseness_m) for t in dense]
    serve_config = ServeConfig(
        workers=config.workers,
        strategy=config.strategy,
        lru_capacity=config.lru_capacity,
        journal_dir=None,
    )
    get_registry().reset(prefix="repro.serve")
    pool = ServingPool(str(model_dir), serve_config)
    with pool:
        started = time.perf_counter()
        for trajectory in feed:
            pool.submit(trajectory)
        pool.drain()
        wall = time.perf_counter() - started
    capacity = pool.stats.completed / wall if wall > 0 else 0.0
    _log.info(
        "capacity calibrated",
        extra={"data": {
            "trajectories": len(feed),
            "wall_s": round(wall, 3),
            "capacity_tps": round(capacity, 2),
        }},
    )
    return capacity


def run_loadtest(
    config: LoadtestConfig,
    workdir: Optional[Union[str, pathlib.Path]] = None,
) -> LoadtestReport:
    """Run one loadtest scenario end to end; returns the report.

    ``workdir`` holds the saved model directory and the per-shard
    journals (inspectable afterwards); omitted, a temporary directory is
    used and cleaned up.
    """
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="kamel-loadtest-")
        workdir = cleanup.name
    workdir = pathlib.Path(workdir)
    try:
        dataset = make_porto_like(
            n_trajectories=config.train_trajectories, seed=config.seed
        )
        train, _ = dataset.split(seed=1)
        system = Kamel(KamelConfig(max_model_calls=config.max_model_calls))
        system.fit(train)
        model_dir = workdir / "model"
        save_kamel(system, model_dir)
        del system  # workers load their own lazy copies

        feed = _make_feed(config, dataset)
        _log.info(
            "loadtest feed ready",
            extra={"data": {
                "trajectories": len(feed),
                "points": sum(len(t) for t in feed),
                "model_dir": str(model_dir),
            }},
        )

        verify = config.verify
        if verify and config.overload:
            # Deadlines and brownout legitimately change outputs (cheaper
            # rungs, expired requests), so bit-for-bit comparison against
            # the unhurried baseline would report false mismatches.
            _log.info(
                "overload mode: bit-for-bit verification disabled "
                "(deadline/brownout degradation changes outputs by design)"
            )
            verify = False
        baseline: Optional[dict[str, list[dict]]] = None
        single_wall: Optional[float] = None
        if verify:
            baseline, single_wall = _run_baseline(config, str(model_dir), feed)

        capacity_tps: Optional[float] = None
        rate = config.rate_tps
        if config.overload:
            if config.offered_multiplier is not None:
                capacity_tps = _calibrate_capacity(
                    config, str(model_dir), dataset
                )
                rate = config.offered_multiplier * capacity_tps
            else:
                rate = config.offered_tps
        max_depth = config.max_queue_depth
        if max_depth is None and config.overload:
            max_depth = 8
        brownout_cfg: Optional[BrownoutConfig] = None
        if config.overload and config.brownout and max_depth is not None:
            brownout_cfg = BrownoutConfig(
                high_depth=max(2, (3 * max_depth) // 4),
                low_depth=max(1, max_depth // 4),
                interval_s=0.1,
            )

        journal_dir = str(workdir / "journal") if config.journal else None
        serve_config = ServeConfig(
            workers=config.workers,
            strategy=config.strategy,
            lru_capacity=config.lru_capacity,
            journal_dir=journal_dir,
            crash_worker_after=config.kill_worker_after,
            chaos_seed=config.seed,
            trace=config.trace,
            flight_capacity=config.flight_capacity,
            max_queue_depth=max_depth,
            admission_policy=config.admission,
            request_deadline_s=config.request_deadline_s,
            brownout=brownout_cfg,
        )
        # A fresh latency window per run: the serve metrics may carry
        # state from an earlier run in this process (tests, repeats).
        get_registry().reset(prefix="repro.serve")
        pool = ServingPool(str(model_dir), serve_config)
        interval = 1.0 / rate if rate > 0 else 0.0
        with pool:
            started = time.perf_counter()
            next_submit = started
            for trajectory in feed:
                if interval:
                    delay = next_submit - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    next_submit += interval
                pool.submit(trajectory)
            results = pool.drain()
            wall = time.perf_counter() - started
            if pool.brownout is not None:
                # Wait while the pool's receiver tick feeds the controller
                # the drained queues and it walks back to level 0 — the
                # recovery half of the hysteresis cycle the report asserts
                # on. Excluded from the wall.
                pool.brownout_settle()

        latency = obs.histogram("repro.serve.latency_seconds")
        p50 = latency.quantile(0.5) or 0.0
        p99 = latency.quantile(0.99) or 0.0
        report = LoadtestReport(
            workers=config.workers,
            strategy=config.strategy,
            trajectories=len(feed),
            completed=pool.stats.completed,
            lost=pool.stats.lost,
            duplicates=pool.stats.duplicates,
            wall_s=wall,
            throughput_tps=pool.stats.completed / wall if wall > 0 else 0.0,
            latency_p50_ms=p50 * 1000.0,
            latency_p99_ms=p99 * 1000.0,
            latency_mean_ms=latency.mean * 1000.0,
            rungs=dict(pool.stats.rungs),
            segments=pool.stats.segments,
            failed_segments=pool.stats.failed_segments,
            degraded_segments=pool.stats.degraded_segments,
            model_calls=pool.stats.model_calls,
            quarantined=pool.stats.quarantined,
            worker_deaths=pool.stats.worker_deaths,
            journal_replayed=pool.stats.journal_replayed,
            worker_errors=pool.stats.errors,
            stages=pool.flight.stage_summary(),
            traced_requests=int(
                obs.counter("repro.serve.traced_requests_total").value
            ),
            overload=config.overload,
            offered_tps=rate if config.overload else 0.0,
            capacity_tps=capacity_tps,
            shed=pool.stats.shed,
            expired=pool.stats.expired,
            peak_queue_depth=pool.stats.peak_queue_depth,
            max_queue_depth=max_depth,
            admission=config.admission if max_depth is not None else None,
            brownout=(
                pool.brownout.to_dict() if pool.brownout is not None else None
            ),
        )
        if config.trace_out:
            write_chrome_trace(
                config.trace_out, pool.trace_roots, thread_names=pool.trace_lanes
            )
            report.trace_out = str(config.trace_out)
            _log.info(
                "merged chrome trace written",
                extra={"data": {
                    "path": str(config.trace_out),
                    "requests": len(pool.trace_roots),
                }},
            )
        if config.flight_out:
            pathlib.Path(config.flight_out).write_text(
                json.dumps(pool.flight.to_dict(), indent=2, default=float) + "\n"
            )
            report.flight_out = str(config.flight_out)
        if baseline is not None:
            report.verified = True
            report.mismatches = _count_mismatches(baseline, results)
            report.single_wall_s = single_wall
            if single_wall and single_wall > 0:
                report.single_throughput_tps = len(feed) / single_wall
                if report.throughput_tps > 0:
                    report.speedup_vs_single = (
                        report.throughput_tps / report.single_throughput_tps
                    )
        _log.info("loadtest finished", extra={"data": report.to_dict()})
        return report
    finally:
        if cleanup is not None:
            cleanup.cleanup()
