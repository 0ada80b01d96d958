"""``serve_*``: the same feed through a two-worker ``ServingPool``.

Both workloads drive the pool only the way a client can: ``submit`` per
request and one ``drain`` after the last send. A fresh pool serves each
pass; it is started, warmed with the warm-up requests and stopped
outside the timed region, and those times are part of ``setup_s``.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import time
from statistics import median
from collections import Counter
from typing import Optional, Sequence

from repro.core.result import ImputationResult
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.io.serialize import load_kamel
from repro.obs.flight import STAGES
from repro.resilience.journal import trajectory_to_payload
from repro.serve.pool import ServeConfig, ServingPool

from perf.calibrate import Calibrator
from perf.common import (
    Violations,
    keep_going,
    latency_metrics,
    median_of_passes,
    outcome_layers,
    peak_rss_mb,
    quality_metrics,
    results_digest,
    span_layers,
)
from perf.stats import MIN_BEYOND, arrival_schedule, percentile
from perf.trace import SpanLog, traced
from perf.workloads import WORKERS, Workload, World

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; fields are
        # counted from the closing parenthesis.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def _process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process: the most it ever had resident."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# -- the single-process reference ------------------------------------------------


def _reference_pass(
    world: World, service: StreamingImputationService, order: Sequence[int],
    log: Optional[SpanLog] = None,
) -> tuple[float, float, list[list[ImputationResult]]]:
    """(start, end, results) of the feed through one in-process service."""
    started = time.perf_counter()
    results = []
    for index in order:
        if log is None:
            results.append(service.process(world.feed[index]))
        else:
            with log.request(index):
                results.append(service.process(world.feed[index]))
    return started, time.perf_counter(), results


# -- one pass through a fresh pool -----------------------------------------------


def _pool_pass(
    workload: Workload,
    world: World,
    order: Sequence[int],
    schedule: Optional[Sequence[float]],
    journal_dir: pathlib.Path,
    trace: bool,
    calibrator: Calibrator,
) -> dict:
    feed = world.feed
    n = len(order)
    clock = time.perf_counter
    pool = ServingPool(
        str(world.model_dir),
        ServeConfig(
            workers=WORKERS,
            journal_dir=str(journal_dir),
            flight_capacity=n + len(world.warm),
            trace=trace,
        ),
    )
    started = clock()
    pool.start()
    try:
        for trajectory in world.warm:
            pool.submit(trajectory)
        pool.drain()
        warmed = clock()
        start_s = (warmed - started) * calibrator.scale(started, warmed)

        pids = [worker["pid"] for worker in pool.healthz()["workers"]]
        cpu_started = time.process_time() + sum(_process_cpu_s(p) for p in pids)
        submit_us: list[float] = []
        lag_ms: list[float] = []
        origin = clock()
        for k, index in enumerate(order):
            if schedule is not None:
                due = origin + schedule[k]
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                sent = clock()
                lag_ms.append((sent - due) * 1e3)
            else:
                sent = clock()
            pool.submit(feed[index])
            submit_us.append((clock() - sent) * 1e6)
        last_send = clock()
        backlog = pool.outstanding
        results = dict(pool.drain())
        drained = clock()
        cpu = time.process_time() + sum(_process_cpu_s(p) for p in pids) - cpu_started
        worker_rss_mb = max(_process_peak_rss_mb(p) for p in pids)
    finally:
        stopping = clock()
        pool.stop()
        stopped = clock()
        stop_s = (stopped - stopping) * calibrator.scale(stopping, stopped)
    factor = calibrator.scale(origin, drained)
    return {
        "pool": pool,
        "results": results,
        "calibration": factor,
        "raw_wall_s": drained - origin,
        # An open-loop pass lasts as long as its schedule says, whatever
        # the CPU's speed; a closed-loop one as long as the work takes.
        "wall_s": (drained - origin) * (1.0 if schedule is not None else factor),
        "cpu_s": cpu * factor,
        "worker_rss_mb": worker_rss_mb,
        "start_s": start_s,
        "stop_s": stop_s,
        "submit_us": submit_us,
        "lag_ms": lag_ms,
        "backlog": backlog,
        "drain_tail_s": drained - last_send,
    }


def _check_pass(
    ids: Sequence[str], outcome: dict,
    reference: dict[str, list[dict]], violations: Violations,
) -> dict[str, int]:
    """Every pooled result equals the reference bit for bit, and the
    pool's own books balance."""
    pool, results = outcome["pool"], outcome["results"]
    stats = pool.stats
    missing = mismatched = errors = 0
    for traj_id in ids:
        message = results.get(traj_id)
        if message is None:
            missing += 1
        elif message.get("error"):
            errors += 1
        elif message.get("trips") != reference[traj_id]:
            mismatched += 1
    unbalanced = int(stats.submitted != stats.completed)
    violations.add("request never came back", missing)
    violations.add("worker reported an error", errors)
    violations.add("pooled output differs from the single-process reference", mismatched)
    violations.add("pool reported duplicates", stats.duplicates)
    violations.add(
        f"pool books do not balance: submitted {stats.submitted}, "
        f"completed {stats.completed}, lost {stats.lost}", unbalanced,
    )
    return {
        "serve.duplicates": stats.duplicates,
        "serve.journal_replayed": stats.journal_replayed,
        "serve.worker_deaths": stats.worker_deaths,
        "serve.lost": stats.lost + missing,
        "serve.mismatches": mismatched,
    }


def _pass_row(
    workload: Workload, ids: Sequence[str], outcome: dict,
    calibrator: Calibrator, strict: bool,
) -> dict[str, float]:
    """The end-to-end values of one pass.

    Latency is timed from the due time on ``serve_paced``: the pool's
    submit-to-result latency plus how late the request was sent. On
    ``serve_flood`` submit-to-result time is queue position, so latency
    there is the worker's service time for the request. Either way the
    part a worker spent computing is calibrated and waiting is not.
    """
    n = len(ids)
    results = outcome["results"]
    answered = [results[t] for t in ids if t in results]
    begun = [calibrator.epoch_to_clock(m["start_epoch"]) for m in answered]
    factors = calibrator.scales(
        begun, [at + m["process_s"] for at, m in zip(begun, answered)]
    )
    computing_s = {m["traj_id"]: m["process_s"] for m in answered}
    calibrated_s = {m["traj_id"]: m["process_s"] * f for m, f in zip(answered, factors)}
    if workload.paced:
        flown = {r.traj_id: r.latency_s for r in outcome["pool"].flight.slowest()}
        samples = [
            (flown[t] - computing_s[t] + calibrated_s[t]) * 1e3 + lag
            for t, lag in zip(ids, outcome["lag_ms"])
            if t in flown and t in computing_s
        ]
    else:
        samples = [value * 1e3 for value in calibrated_s.values()]
    segments = sum(message["segments"] for message in answered)
    failed = sum(message["failed"] for message in answered)
    row = {
        "calibration": outcome["calibration"],
        "raw_wall_s": outcome["raw_wall_s"],
        "wall_s": outcome["wall_s"],
        "cpu_s": outcome["cpu_s"],
        "traj_per_s": n / outcome["wall_s"],
        "cpu_ms_per_traj": outcome["cpu_s"] * 1e3 / n,
        "latency_samples": float(len(samples)),
        "pool_start_s": outcome["start_s"],
        "pool_stop_s": outcome["stop_s"],
        "worker_rss_mb": outcome["worker_rss_mb"],
        "failure_rate": failed / segments if segments else 0.0,
    }
    row.update(latency_metrics(samples, n, workload.limit_ms, strict))
    return row


def _pool_layers(
    world: World, order: Sequence[int], ids: Sequence[str], outcome: dict, strict: bool
) -> dict[str, float]:
    """``pool.*``, ``worker.*``, ``modelstore.*`` and ``loadgen.*`` of the
    traced pass."""
    beyond = MIN_BEYOND if strict else 0
    pool, results = outcome["pool"], outcome["results"]
    answered = [results[t] for t in ids if t in results]
    wanted = set(ids)
    records = [r for r in pool.flight.slowest() if r.traj_id in wanted]
    shards = Counter(message["shard"] for message in answered)
    busy = sum(
        r.stages["inference"] + r.stages["model_load"] + r.stages["detokenize"]
        for r in records
    )
    lru = list(pool.worker_lru.values())
    hits = sum(entry.get("hits", 0) for entry in lru)
    misses = sum(entry.get("misses", 0) for entry in lru)
    out = {
        "pool.submit_us_p50": percentile(outcome["submit_us"], 0.50, min_beyond=beyond),
        "pool.submit_us_p95": percentile(outcome["submit_us"], 0.95, min_beyond=beyond),
        "pool.envelope_bytes_mean": sum(
            len(pickle.dumps(world.feed[index])) for index in order
        ) / len(order),
        "pool.result_bytes_mean": sum(
            len(pickle.dumps(message)) for message in answered
        ) / max(1, len(answered)),
        "pool.shard_imbalance": (
            max(shards.values()) * len(shards) / sum(shards.values()) if shards else 0.0
        ),
        "pool.backlog_at_last_send": float(outcome["backlog"]),
        "pool.drain_tail_s": outcome["drain_tail_s"],
        "worker.busy_share": busy / (WORKERS * outcome["wall_s"]),
        "worker.model_calls": float(sum(message["model_calls"] for message in answered)),
        "worker.segments": float(sum(message["segments"] for message in answered)),
        "modelstore.lru_hits": float(hits),
        "modelstore.lru_misses": float(misses),
        "modelstore.hit_share": hits / (hits + misses) if hits + misses else 0.0,
    }
    for stage in STAGES:
        values = [r.stages[stage] * 1e3 for r in records]
        out[f"pool.stage.{stage}_p50_ms"] = percentile(values, 0.50, min_beyond=beyond)
        out[f"pool.stage.{stage}_p95_ms"] = percentile(values, 0.95, min_beyond=beyond)
    if outcome["lag_ms"]:
        out["loadgen.lag_p95_ms"] = percentile(outcome["lag_ms"], 0.95, min_beyond=beyond)
        out["loadgen.lag_max_ms"] = max(outcome["lag_ms"])
    return out


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
    workdir: pathlib.Path,
) -> dict:
    n = len(order)
    ids = [world.feed[index].traj_id for index in order]
    violations = Violations()
    schedule = arrival_schedule(n, workload.rate_per_s, world_seed) if workload.paced else None

    # The oracle: the saved system, loaded back, one process, same order.
    started = time.perf_counter()
    system = load_kamel(world.model_dir)
    service = StreamingImputationService(system, StreamingConfig())
    for trajectory in world.warm:
        service.process(trajectory)
    began, ended, oracle = _reference_pass(world, service, order)
    single_wall = (ended - began) * calibrator.scale(began, ended)
    reference_s = (ended - started) * calibrator.scale(started, ended)
    reference = {
        traj_id: [trajectory_to_payload(r.trajectory) for r in group]
        for traj_id, group in zip(ids, oracle)
    }
    quality = quality_metrics([world.dense[i] for i in order], oracle)
    single_traj_per_s = n / single_wall

    passes: list[dict[str, float]] = []
    serve_counts: Counter = Counter()
    while keep_going([p["raw_wall_s"] for p in passes], seconds):
        outcome = _pool_pass(
            workload, world, order, schedule, workdir / f"journal-{len(passes)}",
            trace=False, calibrator=calibrator,
        )
        serve_counts.update(_check_pass(ids, outcome, reference, violations))
        passes.append(_pass_row(workload, ids, outcome, calibrator, strict))

    end_to_end = median_of_passes(passes)
    pool_start_s = end_to_end.pop("pool_start_s")
    pool_stop_s = end_to_end.pop("pool_stop_s")
    for row in passes:
        if row["failure_rate"] != quality["failure_rate"]:
            violations.add("pool failure_rate differs from the reference's")
    end_to_end.update(quality)
    # Before the traced pass: its spans are the harness's memory, not the
    # program's.
    end_to_end["peak_rss_mb"] = peak_rss_mb(max(p["worker_rss_mb"] for p in passes))

    info: dict = {
        "passes": passes,
        "latency_samples_per_pass": n,
        "digest": results_digest(ids, oracle),
    }
    layers: dict[str, float] = {}
    spans = None
    if trace:
        spans = SpanLog()
        with traced(system, spans):
            began, ended, traced_oracle = _reference_pass(world, service, order, spans)
        factor = calibrator.scale(began, ended)
        if results_digest(ids, traced_oracle) != info["digest"]:
            violations.add("traced reference output differs from the untraced one")
        layers.update(span_layers(spans, (ended - began) * factor, factor))
        layers.update(outcome_layers((r for group in oracle for r in group), strict))

        outcome = _pool_pass(
            workload, world, order, schedule, workdir / "journal-traced",
            trace=True, calibrator=calibrator,
        )
        serve_counts.update(_check_pass(ids, outcome, reference, violations))
        info["traced_pass"] = _pass_row(workload, ids, outcome, calibrator, strict)
        layers.update(_pool_layers(world, order, ids, outcome, strict))
        untraced = median([p["wall_s"] for p in passes])
        layers["trace.overhead_share"] = (outcome["wall_s"] - untraced) / untraced
        layers["setup.reference_s"] = reference_s
        layers["setup.pool_start_s"] = pool_start_s
        layers["setup.pool_stop_s"] = pool_stop_s
        layers["serve.single_traj_per_s"] = single_traj_per_s
        layers["serve.speedup_vs_single"] = end_to_end["traj_per_s"] / single_traj_per_s
        layers.update({name: float(value) for name, value in serve_counts.items()})

    end_to_end["setup_s"] = setup["world_s"] + pool_start_s + pool_stop_s
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": n * (len(passes) + (1 if trace else 0)),
        "violations": violations,
        "info": info,
        "spans": spans,
    }
