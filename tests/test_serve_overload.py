"""Overload protection: admission control and deadlines.

Unit scale: the deadline's ladder cap under a fake clock, rung capping
inside ``Kamel.impute``, and config validation. Multiprocess scale: a
deliberately stalled worker (deterministic chaos, ``stall_after``) backs
the queue up so shedding, the queue bound and deadline expiry can be
observed on a real pool — every scenario asserts the overload invariant:
*submitted == completed + shed + expired*, refusals typed, nothing lost.
"""

import math
import time
from dataclasses import replace

import pytest

from repro.core.kamel import Kamel
from repro.errors import ConfigError
from repro.io.serialize import save_kamel
from repro.obs import instrument as obs
from repro.obs.metrics import get_registry
from repro.resilience.chaos import ChaosConfig
from repro.resilience.ladder import (
    ALL_RUNGS,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_LINEAR,
    RUNG_REDUCED_BEAM,
    allows,
)
from repro.resilience.deadline import Deadline
from repro.serve import ServeConfig, ServingPool
from repro.serve.worker import _rung_cap


# ---------------------------------------------------------------------------
# unit scale
# ---------------------------------------------------------------------------


class TestRungCapMapping:
    def test_allows_respects_cap_ordering(self):
        assert allows(RUNG_FULL, None)
        assert not allows(RUNG_FULL, RUNG_REDUCED_BEAM)
        assert allows(RUNG_COUNTING, RUNG_REDUCED_BEAM)
        # linear is the safety net; no cap may exclude it
        for cap in (None, *ALL_RUNGS):
            assert allows(RUNG_LINEAR, cap)

class TestDeadlineCap:
    """``serve.worker._rung_cap``: the ladder cap a task's remaining
    deadline budget sets, on a fake clock. Boundaries are exact: a
    budget of 8 s makes 0.5 and 0.25 of it representable."""

    BUDGET_S = 8.0

    def cap_at(self, fraction_left):
        deadline = Deadline(
            fraction_left * self.BUDGET_S, self.BUDGET_S, clock=lambda: 0.0
        )
        assert deadline.remaining() / deadline.budget_s == fraction_left
        return _rung_cap(deadline)

    @pytest.mark.parametrize(
        "fraction_left, cap",
        [
            (0.6, None),
            (0.5, None),
            (0.4, RUNG_REDUCED_BEAM),
            (0.25, RUNG_REDUCED_BEAM),
            (0.2, RUNG_COUNTING),
        ],
    )
    def test_cap_by_fraction_of_budget_left(self, fraction_left, cap):
        assert self.cap_at(fraction_left) == cap

    def test_no_deadline_or_an_unlimited_one_is_uncapped(self):
        assert _rung_cap(None) is None
        assert _rung_cap(Deadline(math.inf)) is None


class TestImputeRungCap:
    """``max_rung`` caps the ladder inside the core imputer."""

    @pytest.fixture(scope="class")
    def sparse(self, small_split):
        _, test = small_split
        return test[0].sparsify(800.0)

    def test_uncapped_baseline_uses_the_ladder_top(self, trained_kamel, sparse):
        result = trained_kamel.impute(sparse)
        assert result.num_segments > 0

    def test_counting_cap_excludes_model_rungs(self, trained_kamel, sparse):
        result = trained_kamel.impute(sparse, max_rung=RUNG_COUNTING)
        rungs = {o.rung for o in result.segments}
        assert rungs <= {RUNG_COUNTING, RUNG_LINEAR}

    def test_linear_cap_degrades_everything(self, trained_kamel, sparse):
        result = trained_kamel.impute(sparse, max_rung=RUNG_LINEAR)
        assert {o.rung for o in result.segments} == {RUNG_LINEAR}
        assert all(o.failed for o in result.segments)

    def test_brownout_skips_are_counted(self, trained_kamel, sparse):
        before = obs.counter("repro.resilience.brownout_skips_total").value
        trained_kamel.impute(sparse, max_rung=RUNG_LINEAR)
        after = obs.counter("repro.resilience.brownout_skips_total").value
        assert after > before


class TestIpcChaos:
    """The new IPC fault sites, at unit scale (pool tests use them live)."""

    def test_stall_fires_exactly_once_at_the_counter(self):
        from repro.resilience.chaos import ChaosMonkey

        waits = []
        monkey = ChaosMonkey(
            ChaosConfig(seed=0, stall_after=2, stall_s=0.5),
            sleep=waits.append,
        )
        for _ in range(5):
            monkey.on_dequeue()
        assert waits == [0.5]
        assert monkey.report.stalls == 1

    def test_ipc_delay_respects_site_list(self):
        from repro.resilience.chaos import ChaosMonkey

        waits = []
        monkey = ChaosMonkey(
            ChaosConfig(
                seed=0, ipc_delay_rate=1.0, ipc_delay_s=0.01,
                ipc_sites=("ipc.result",),
            ),
            sleep=waits.append,
        )
        monkey.on_ipc("ipc.dequeue")
        assert waits == []
        monkey.on_ipc("ipc.result")
        assert waits == [0.01]

    def test_ipc_config_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(ipc_delay_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(stall_after=0)
        with pytest.raises(ValueError):
            ChaosConfig(stall_s=-1.0)


class TestConfigValidation:
    def test_serve_config_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            ServeConfig(max_queue_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(request_deadline_s=0.0)


# ---------------------------------------------------------------------------
# multiprocess scale: a stalled worker backs the queue up
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("overload_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def sparse_feed(small_split):
    _, test = small_split
    return [t.sparsify(800.0) for t in test[:8]]


def _stall(seconds):
    """Deterministic chaos: the worker freezes on its first dequeue,
    guaranteeing the queue backs up while the feed is submitted."""
    return ChaosConfig(seed=0, stall_after=1, stall_s=seconds)


def _accounted(pool, feed, results):
    stats = pool.stats
    assert stats.lost == 0
    assert stats.completed + stats.shed + stats.expired == len(feed)
    assert set(results) == {t.traj_id for t in feed}


class TestShedAdmission:
    @pytest.fixture(scope="class")
    def run(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            max_queue_depth=2,
            worker_chaos=_stall(1.5),
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
        return pool, results

    def test_everything_accounted(self, run, sparse_feed):
        pool, results = run
        _accounted(pool, sparse_feed, results)

    def test_excess_was_shed_as_typed_overload_results(self, run):
        pool, results = run
        assert pool.stats.shed > 0
        shed = [m for m in results.values() if m.get("shed")]
        assert len(shed) == pool.stats.shed
        for message in shed:
            assert message["error_type"] == "OverloadError"
            assert "OverloadError" in message["error"]

    def test_queue_depth_stayed_bounded(self, run):
        pool, _ = run
        assert 0 < pool.stats.peak_queue_depth <= 2

    def test_shed_total_counter_matches(self, run):
        pool, _ = run
        assert obs.counter("repro.serve.shed_total").value == pool.stats.shed

    def test_gauges_settle_to_zero_after_drain(self, run):
        assert obs.gauge("repro.serve.queue_depth").value == 0

    def test_healthz_reports_admission_and_shed(self, run):
        pool, _ = run
        doc = pool.healthz()
        assert doc["shed"] == pool.stats.shed
        assert doc["admission"]["max_queue_depth"] == 2
        assert doc["workers"][0]["queue_depth"] == 0


class TestStalledWorkerDepth:
    """A shard's depth is its outstanding work: the task its stalled
    worker holds counts against ``max_queue_depth`` like a queued one."""

    def test_in_flight_task_counts_and_depth_drains_to_zero(
        self, saved_dir, sparse_feed
    ):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            max_queue_depth=3,
            # The worker holds every task 1 s between finishing it and
            # sending its result: dequeued, in progress, not queued.
            worker_chaos=ChaosConfig(
                seed=0, ipc_delay_rate=1.0, ipc_delay_s=1.0,
                ipc_sites=("ipc.result",),
            ),
        )
        first, second, *rest = sparse_feed
        pool = ServingPool(str(saved_dir), config)
        with pool:
            pool.process_all([first], timeout=240)  # the worker is up
            pool.submit(second)
            time.sleep(0.3)  # the worker has taken it off the queue
            for trajectory in rest:
                pool.submit(trajectory)
            # Exactly three admitted — the stalled one and two queued —
            # the rest shed. Counting queued work only would admit four.
            assert pool.stats.peak_queue_depth == 3
            assert pool.stats.shed == len(rest) - 2
            results = pool.drain(timeout=240)
            assert pool.healthz()["workers"][0]["queue_depth"] == 0
        _accounted(pool, sparse_feed, results)
        assert pool.stats.peak_queue_depth <= config.max_queue_depth
        assert obs.gauge("repro.serve.queue_depth").value == 0


class TestHealthzMidStall:
    """In-flight work is not a fault: with every worker alive and nothing
    written off, ``/healthz`` reads ok while requests are outstanding."""

    def test_outstanding_work_reads_ok(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(workers=2, worker_chaos=_stall(1.5))
        feed = sparse_feed[:4]
        pool = ServingPool(str(saved_dir), config)
        with pool:
            for trajectory in feed:
                pool.submit(trajectory)
            mid_stall = pool.healthz()
            results = pool.drain(timeout=240)
            drained = pool.healthz()
        assert mid_stall["outstanding"] > 0
        assert all(worker["alive"] for worker in mid_stall["workers"])
        assert mid_stall["declared_lost"] == 0
        assert mid_stall["status"] == "ok"
        assert drained["outstanding"] == 0 and drained["status"] == "ok"
        _accounted(pool, feed, results)


class TestDeadlineExpiry:
    @pytest.fixture(scope="class")
    def run(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            request_deadline_s=0.4,
            worker_chaos=_stall(1.2),
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
        return pool, results

    def test_expired_in_queue_dropped_not_lost(self, run, sparse_feed):
        pool, results = run
        _accounted(pool, sparse_feed, results)
        assert pool.stats.expired > 0

    def test_expired_results_are_typed(self, run):
        pool, results = run
        expired = [m for m in results.values() if m.get("expired")]
        assert len(expired) == pool.stats.expired
        for message in expired:
            assert message["error_type"] == "DeadlineExceeded"
            assert message["trips"] == []

    def test_expired_excluded_from_latency_histogram(self, run):
        pool, _ = run
        histogram = obs.histogram("repro.serve.latency_seconds")
        assert histogram.count == pool.stats.completed


class TestEveryProtectionAtOnce:
    """Admission bound and deadline on one 2-worker pool: a single run
    sheds *and* expires, holds the bound and still accounts for every
    request.

    Eight trajectories over two shards put at least four on one of them,
    so a bound of 2 sheds at least two; each worker stalls on its first
    dequeue for longer than the deadline, so every admitted request has
    expired by the time its worker looks at it."""

    def test_shed_expired_and_bounded_in_one_run(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=2,
            max_queue_depth=2,
            request_deadline_s=0.3,
            worker_chaos=_stall(0.8),
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
        stats = pool.stats
        assert stats.shed >= 1
        assert stats.expired >= 1
        assert stats.peak_queue_depth <= 2
        _accounted(pool, sparse_feed, results)


@pytest.mark.chaos
class TestWorkerKillDuringOverload:
    """The composed failure: a bounded, stalled queue AND a worker crash.

    Exactly-once must survive the combination — the respawned shard
    replays its journal, dedupe suppresses any double delivery, and the
    overload accounting still sums to the number submitted.
    """

    @pytest.fixture(scope="class")
    def run(self, saved_dir, small_split, tmp_path_factory):
        _, test = small_split
        feed = [t.sparsify(800.0) for t in test[:12]]
        get_registry().reset(prefix="repro.serve")
        journal_dir = tmp_path_factory.mktemp("overload_journal")
        config = ServeConfig(
            workers=2,
            journal_dir=str(journal_dir),
            max_queue_depth=3,
            worker_chaos=replace(_stall(0.8), crash_after=2),
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(feed, timeout=240)
        return pool, results, feed

    def test_worker_died_and_was_replaced(self, run):
        pool, results, _ = run
        # Routing decides whether shard 0 ever reaches its crash point: a
        # change that starves it must fail here, not skip the crash.
        admitted = [
            m for m in results.values() if m["shard"] == 0 and not m.get("shed")
        ]
        assert len(admitted) >= pool.config.worker_chaos.crash_after
        assert pool.stats.worker_deaths >= 1

    def test_overload_really_happened(self, run):
        pool, _, _ = run
        assert pool.stats.shed > 0

    def test_exactly_once_accounting_preserved(self, run):
        pool, results, feed = run
        _accounted(pool, feed, results)
        # one result per trajectory, even where the journal was replayed
        assert len(results) == len(feed)

    def test_queue_bound_held_through_the_crash(self, run):
        pool, _, _ = run
        assert pool.stats.peak_queue_depth <= 3
