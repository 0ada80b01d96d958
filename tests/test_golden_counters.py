"""The exact-counter gate: identical code gives identical counts.

Everything pinned here is an exact integer the imputation pipeline counts
on one fixed world — the benchmark's ``bulk_porto`` recipe at world seed
7, rebuilt here from its parts so tier-1 does not import ``perf/``.
Timings are compared by ``perf/run.py`` and nowhere else; what must not
drift *at all* between two commits that claim the same decisions is
asserted with ``==``, so a rise and a fall both fail.

A PR that changes a search decision on purpose (a constraint, the beam
bookkeeping, the candidate order) moves these pins once, deliberately,
and says so; any other PR that trips them has changed the output.

The same world pins the output itself, as one digest that the
single-process path and a two-worker ``ServingPool`` must both produce.
"""

import hashlib
import json

import pytest

from repro import Kamel, KamelConfig
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.io.serialize import save_kamel
from repro.obs import MetricsRegistry, set_registry
from repro.resilience.journal import trajectory_to_payload
from repro.roadnet import SimulatorConfig, TrajectorySimulator
from repro.roadnet.datasets import make_porto_like
from repro.serve import ServeConfig, ServingPool

ANCHOR = {"results": 200, "segments": 597, "linear": 276, "model_calls": 55_100}
"""The seed-commit anchor ``perf/`` checks on every ``bulk_porto`` run."""

OUTPUT_DIGEST = "50839e2fec242b90326c7d6108c4acc478a701bb3d9e0be24bfecfc81fd45aa3"
"""SHA-256 of every output coordinate of the feed, in trajectory-id order."""

GOLDEN = {
    "repro.constraints.candidates_in_total": 129_034,
    "repro.constraints.candidates_out_total": 59_684,
    "repro.constraints.rejected.local_detour_total": 37_622,
    "repro.constraints.rejected.cycle_total": 16_301,
    "repro.constraints.rejected.length_budget_total": 11_290,
    "repro.constraints.rejected.direction_cone_total": 2_145,
    "repro.constraints.rejected.speed_ellipse_total": 1_992,
    "repro.detokenization.tokens_total": 1_897,
    "repro.imputation.model_calls_total": 55_100,
    "repro.imputation.model_invocations_total": 3_265,
    "repro.imputation.memo_hits_total": 23_800,
    "repro.kamel.rung.full_total": 313,
    "repro.kamel.rung.reduced_beam_total": 7,
    "repro.kamel.rung.counting_total": 1,
    "repro.kamel.rung.linear_total": 276,
}


def golden_world(**config):
    """The fitted system and its 200-request feed (``config`` overrides
    ``KamelConfig`` fields on top of the benchmark's)."""
    dataset = make_porto_like(200, seed=7)
    train, _ = dataset.split(seed=1)
    system = Kamel(KamelConfig(max_model_calls=600, **config)).fit(train)
    simulator = TrajectorySimulator(
        dataset.network,
        SimulatorConfig(sample_interval_s=15.0, min_trip_length_m=800.0, seed=108),
    )
    dense = simulator.simulate(240, id_prefix="load")
    return system, [t.sparsify(800.0) for t in dense[:200]]


@pytest.fixture(scope="module")
def world():
    return golden_world()


def _kamel_impute(system, feed):
    return [system.impute(t) for t in feed]


def _streaming_service(system, feed):
    """The path the serving pool is verified against, bit for bit."""
    service = StreamingImputationService(system, StreamingConfig())
    return [result for t in feed for result in service.process(t)]


@pytest.mark.parametrize("path", [_kamel_impute, _streaming_service])
def test_exact_counts_on_the_benchmark_world(world, path):
    system, feed = world
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        results = path(system, feed)
    finally:
        set_registry(previous)
    assert {
        "results": len(results),
        "segments": sum(r.num_segments for r in results),
        "linear": sum(r.num_failed for r in results),
        "model_calls": sum(r.total_model_calls for r in results),
    } == ANCHOR
    snapshot = registry.snapshot()
    counted = {name: snapshot.get(name, {}).get("value") for name in GOLDEN}
    assert counted == GOLDEN


def output_digest(trips_by_id):
    """``traj_id -> [trip payload, ...]`` digested in trajectory-id order."""
    digest = hashlib.sha256()
    for traj_id in sorted(trips_by_id):
        digest.update(json.dumps([traj_id, trips_by_id[traj_id]]).encode())
    return digest.hexdigest()


def test_single_process_and_serving_pool_give_the_pinned_output(world, tmp_path):
    system, feed = world
    single = {t.traj_id: [trajectory_to_payload(system.impute(t).trajectory)] for t in feed}
    assert output_digest(single) == OUTPUT_DIGEST
    save_kamel(system, tmp_path / "model")
    with ServingPool(str(tmp_path / "model"), ServeConfig(workers=2)) as pool:
        served = pool.process_all(feed, timeout=60)
    assert pool.stats.completed == len(feed) and pool.stats.lost == 0
    assert output_digest({traj_id: r["trips"] for traj_id, r in served.items()}) == OUTPUT_DIGEST
