"""The chaos suite: seeded fault injection against the full pipeline.

Every test here is deterministic — one ``random.Random(seed)`` drives all
injected faults, and injected latency uses tiny sleeps.

Run with ``pytest -m chaos`` on its own; the normal suite (and CI's
``tests`` job) runs it too.
"""

import math
import time

import pytest

from repro import Kamel, KamelConfig
from repro.geo import Point, Trajectory
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs import instrument as obs
from repro.obs.export import render_prometheus
from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    RUNG_FULL,
    chaos_scope,
    install_grid_chaos,
)

pytestmark = pytest.mark.chaos


@pytest.fixture()
def fresh_registry():
    """Isolate each chaos test's metrics."""
    previous = set_registry(MetricsRegistry())
    yield get_registry()
    set_registry(previous)


@pytest.fixture(scope="module")
def chaos_system(small_dataset):
    """A dedicated trained system the chaos tests may stress freely.

    Module-scoped (training is the expensive part). Deliberately NOT the
    session-wide ``trained_kamel``, which no chaos test may touch.
    """
    train, _ = small_dataset.split(seed=1)
    return Kamel(KamelConfig(max_model_calls=600)).fit(train)


def _feed(small_dataset, n=8, sparseness=600.0):
    _, test = small_dataset.split(seed=1)
    return [t.sparsify(sparseness) for t in test[:n]]


def _bad_trajectory(traj_id):
    return Trajectory(
        traj_id, [Point(float("nan"), 0.0, t=0.0), Point(700.0, 100.0, t=60.0)]
    )


class TestSeededScenario:
    """The ISSUE acceptance scenario: 30% injected model-lookup/inference
    failures plus 10% latency spikes, under a per-trajectory deadline."""

    DEADLINE_S = 0.25
    GRACE_S = 0.05

    def test_deadlines_hold_and_nothing_is_lost(
        self, chaos_system, small_dataset, tmp_path, fresh_registry
    ):
        feed = _feed(small_dataset, n=8)
        feed.insert(2, _bad_trajectory("bad-1"))
        feed.insert(5, _bad_trajectory("bad-2"))

        service = StreamingImputationService(
            chaos_system,
            StreamingConfig(quarantine_path=str(tmp_path / "dead.jsonl")),
        )
        monkey = ChaosMonkey(
            ChaosConfig(
                seed=1234, failure_rate=0.3, latency_rate=0.1, latency_s=0.01
            )
        )
        results = []
        with chaos_scope(monkey, system=chaos_system):
            for trajectory in feed:
                results.append(service.process(trajectory))

        # The chaos actually happened.
        assert monkey.report.total_faults > 0
        assert monkey.report.total_delays > 0

        # Zero trajectories lost: everything submitted was processed (the
        # quarantined ones count — they are accounted for, not dropped).
        stats = service.stats
        assert stats.trajectories_in == len(feed)
        assert stats.quarantined == 2
        assert len(service.quarantine) == 2
        assert {e.traj_id for e in service.quarantine.entries()} == {"bad-1", "bad-2"}

        # Rungs are visible on every outcome ...
        segments = [s for batch in results for r in batch for s in r.segments]
        assert segments, "scenario produced no imputed segments"
        for segment in segments:
            assert segment.rung is not None
            if segment.rung != RUNG_FULL:
                assert segment.degraded
        # ... and in the Prometheus exposition.
        exposition = render_prometheus(fresh_registry.snapshot())
        for rung in {s.rung for s in segments}:
            line = f"repro_kamel_rung_{rung}_total"
            assert line in exposition
        assert "repro_resilience_chaos_faults_total" in exposition

    def test_deadline_bounds_impute_time(
        self, chaos_system, small_dataset, fresh_registry
    ):
        from repro.resilience import Deadline

        feed = _feed(small_dataset, n=8)
        monkey = ChaosMonkey(
            ChaosConfig(
                seed=1234, failure_rate=0.3, latency_rate=0.1, latency_s=0.01
            )
        )
        with chaos_scope(monkey, system=chaos_system):
            for trajectory in feed:
                start = time.monotonic()
                result = chaos_system.impute(
                    trajectory, deadline=Deadline.after(self.DEADLINE_S)
                )
                elapsed = time.monotonic() - start
                # The acceptance bound: never past the deadline by >50 ms.
                assert elapsed <= self.DEADLINE_S + self.GRACE_S, (
                    f"impute took {elapsed:.3f}s against a "
                    f"{self.DEADLINE_S}s deadline"
                )
                assert len(result.trajectory) >= len(trajectory)


class TestDeterminism:
    def _run_once(self, system, feed):
        previous = set_registry(MetricsRegistry())
        try:
            monkey = ChaosMonkey(
                ChaosConfig(seed=77, failure_rate=0.3, latency_rate=0.0)
            )
            outputs = []
            with chaos_scope(monkey, system=system):
                for trajectory in feed:
                    # No deadline: behavior must depend only on the seeded
                    # fault sequence, never on wall-clock timing.
                    result = system.impute(trajectory)
                    outputs.append(result)
            return monkey.report.to_dict(), outputs
        finally:
            set_registry(previous)

    def test_same_seed_replays_exactly(self, chaos_system, small_dataset):
        feed = _feed(small_dataset, n=6)
        report_a, outputs_a = self._run_once(chaos_system, feed)
        report_b, outputs_b = self._run_once(chaos_system, feed)
        assert report_a == report_b
        assert [r.trajectory for r in outputs_a] == [r.trajectory for r in outputs_b]
        assert [
            [(s.rung, s.fallback_reason) for s in r.segments] for r in outputs_a
        ] == [[(s.rung, s.fallback_reason) for s in r.segments] for r in outputs_b]


class TestFailureRateParity:
    """StreamStats and the exported counters agree on what a failure is:
    segments served by the linear rung only."""

    def test_stats_and_counters_agree(
        self, chaos_system, small_dataset, fresh_registry
    ):
        service = StreamingImputationService(chaos_system, StreamingConfig())
        for trajectory in _feed(small_dataset, n=6):
            service.process(trajectory)
        stats = service.stats
        assert stats.segments > 0
        imputed = obs.counter("repro.kamel.segments_imputed_total").value
        failed = obs.counter("repro.kamel.segments_failed_total").value
        degraded = obs.counter("repro.kamel.segments_degraded_total").value
        assert imputed == stats.segments
        assert failed / imputed == stats.failure_rate
        assert degraded / imputed == stats.degraded_rate
        # Failures are degraded by definition; never the other way around.
        assert stats.degraded_segments >= stats.failed_segments


class TestGridChaos:
    def test_corruption_swaps_cell_for_neighbor(self, chaos_system, fresh_registry):
        grid = chaos_system.tokenizer.grid
        point = Point(400.0, 400.0)
        true_cell = grid.cell_of(point)
        monkey = ChaosMonkey(ChaosConfig(seed=3, corruption_rate=1.0))
        uninstall = install_grid_chaos(grid, monkey)
        try:
            corrupted = grid.cell_of(point)
            assert corrupted in grid.neighbors(true_cell)
            assert monkey.report.corruptions == 1
        finally:
            uninstall()
        assert grid.cell_of(point) == true_cell

    def test_pipeline_survives_corrupted_lookups(
        self, chaos_system, small_dataset, fresh_registry
    ):
        feed = _feed(small_dataset, n=3)
        monkey = ChaosMonkey(ChaosConfig(seed=5, corruption_rate=0.2))
        with chaos_scope(
            monkey, system=chaos_system, grid=chaos_system.tokenizer.grid
        ):
            for trajectory in feed:
                result = chaos_system.impute(trajectory)
                # Corrupted cells may degrade accuracy, never crash, and
                # every point must still be finite.
                for p in result.trajectory.points:
                    assert math.isfinite(p.x) and math.isfinite(p.y)
