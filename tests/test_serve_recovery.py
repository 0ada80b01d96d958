"""Worker-death recovery: journal replay restores exactly-once results.

Chaos scenario: ``worker_chaos=ChaosConfig(crash_after=2)`` tells shard
0's first incarnation to die (a hard ``os._exit``, no unwind) on its 2nd
task; every other incarnation runs with the crash cleared. The pool must notice the dead
process, respawn the shard with ``recover=True``, replay the pending
journal entry, and finish the batch — with the final output map still
byte-identical to the single-process baseline and every submitted
trajectory accounted for.
"""

import time

import pytest

from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.io.serialize import load_kamel, save_kamel
from repro.obs.metrics import get_registry
from repro.resilience.chaos import ChaosConfig
from repro.resilience.journal import trajectory_to_payload
from repro.serve import ServeConfig, ServingPool
from repro.serve import pool as pool_module

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("recovery_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def sparse_feed(small_split):
    _, test = small_split
    return [t.sparsify(800.0) for t in test[:12]]


@pytest.fixture(scope="module")
def baseline(saved_dir, sparse_feed):
    system = load_kamel(saved_dir)
    service = StreamingImputationService(system, StreamingConfig())
    return {
        t.traj_id: [trajectory_to_payload(r.trajectory) for r in service.process(t)]
        for t in sparse_feed
    }


@pytest.fixture(scope="module")
def crashed_run(saved_dir, sparse_feed, tmp_path_factory):
    """One pool run where shard 0 dies mid-batch; shared by the asserts."""
    get_registry().reset(prefix="repro.serve")
    journal_dir = tmp_path_factory.mktemp("recovery_journal")
    config = ServeConfig(
        workers=2,
        journal_dir=str(journal_dir),
        worker_chaos=ChaosConfig(crash_after=2),
    )
    pool = ServingPool(str(saved_dir), config)
    with pool:
        results = pool.process_all(sparse_feed, timeout=240)
    return pool, results


def _routed_to_shard_zero(pool, feed) -> int:
    """How many of ``feed`` the pool's router gives shard 0: below
    ``crash_after`` the injected crash could never fire."""
    return sum(pool.shard_for(t) == 0 for t in feed)


class TestWorkerDeathRecovery:
    def test_death_detected_and_shard_revived(self, crashed_run, sparse_feed):
        pool, _ = crashed_run
        assert _routed_to_shard_zero(pool, sparse_feed) >= pool.config.worker_chaos.crash_after
        assert pool.stats.worker_deaths == 1

    def test_journal_replayed(self, crashed_run):
        pool, _ = crashed_run
        # The trajectory that was in flight when the worker died was
        # journaled (begin, no done) and must come back via replay.
        assert pool.stats.journal_replayed >= 1

    def test_nothing_lost(self, crashed_run, sparse_feed):
        pool, results = crashed_run
        assert pool.stats.lost == 0
        assert set(results) == {t.traj_id for t in sparse_feed}

    def test_results_match_single_process(self, crashed_run, baseline):
        _, results = crashed_run
        for traj_id, expected in baseline.items():
            assert results[traj_id]["trips"] == expected

    def test_replayed_results_flagged(self, crashed_run):
        _, results = crashed_run
        assert any(message.get("replayed") for message in results.values())


@pytest.fixture(scope="module")
def retired_run(saved_dir, sparse_feed):
    """Shard 0 dies with no revivals left: its in-flight work must be
    written off immediately instead of wedging drain() until the timeout.
    The revival cap is read in the parent, so patching it to 0 retires
    the shard on its first death."""
    get_registry().reset(prefix="repro.serve")
    config = ServeConfig(workers=2, worker_chaos=ChaosConfig(crash_after=2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "MAX_REVIVES_PER_SHARD", 0)
        pool = ServingPool(str(saved_dir), config)
        with pool:
            started = time.monotonic()
            results = pool.process_all(sparse_feed, timeout=240)
            elapsed = time.monotonic() - started
    return pool, results, elapsed


class TestShardRetirementDeclaresLost:
    def test_lost_work_written_off_explicitly(self, retired_run, sparse_feed):
        pool, _, _ = retired_run
        assert _routed_to_shard_zero(pool, sparse_feed) >= pool.config.worker_chaos.crash_after
        assert pool.stats.worker_deaths == 1
        # A straggler result already in the pipe at write-off time is
        # still accepted, so declared_lost bounds lost from above.
        assert pool.stats.declared_lost >= pool.stats.lost >= 1

    def test_drain_returns_promptly_not_at_timeout(self, retired_run):
        # Regression: before retirement write-off, the dead shard's
        # outstanding entries kept drain() sleeping out the full 240s
        # while the surviving shard sat idle.
        pool, _, elapsed = retired_run
        assert pool.outstanding == 0
        assert elapsed < 120.0

    def test_queue_depth_gauge_reflects_reality(self, retired_run):
        _, _, _ = retired_run
        gauge = get_registry().get("repro.serve.queue_depth")
        assert gauge is not None and gauge.value == 0

    def test_lost_total_counter_matches(self, retired_run):
        pool, _, _ = retired_run
        counter = get_registry().get("repro.serve.lost_total")
        assert counter is not None
        # The counter counts every write-off; a straggler that settles
        # one after all moves it out of declared_lost only.
        assert counter.value == (
            pool.stats.declared_lost + pool.stats.reversed_write_offs
        )

    def test_healthz_degraded_and_counts_the_write_off(self, retired_run):
        pool, _, _ = retired_run
        health = pool.healthz()
        assert health["status"] == "degraded"
        assert health["declared_lost"] == pool.stats.declared_lost
        assert health["outstanding"] == 0

    def test_surviving_shard_results_still_correct(self, retired_run, baseline):
        pool, results, _ = retired_run
        assert len(results) == pool.stats.completed
        for traj_id, message in results.items():
            assert message["trips"] == baseline[traj_id]


class TestJournalDisabled:
    def test_pool_without_journal_still_serves(self, saved_dir, sparse_feed):
        # No journal_dir: no durability, but the happy path (no crash)
        # must work identically.
        get_registry().reset(prefix="repro.serve")
        pool = ServingPool(str(saved_dir), ServeConfig(workers=1))
        with pool:
            results = pool.process_all(sparse_feed[:4], timeout=120)
        assert len(results) == 4
        assert pool.stats.lost == 0
