"""Overload protection: admission control, deadlines, brownout.

Unit scale: the brownout hysteresis state machine under a fake clock,
the level→ladder-cap mapping, rung capping inside ``Kamel.impute``, and
config validation. Multiprocess scale: a deliberately stalled worker
(deterministic chaos, ``stall_after``) backs the queue up so admission
policies, deadline expiry, and the brownout cycle can be observed on a
real pool — every scenario asserts the overload invariant: *submitted ==
completed + shed + expired*, refusals typed, nothing lost.
"""

import pytest

from repro.core.kamel import Kamel
from repro.errors import ConfigError, KamelError, OverloadError
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
    DegradationLadder,
)
from repro.serve import ServeConfig, ServingPool
from repro.serve.loadtest import LoadtestConfig
from repro.serve.overload import (
    ADMISSION_POLICIES,
    LEVEL_RUNGS,
    BrownoutConfig,
    BrownoutController,
    rung_cap_for,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# unit scale
# ---------------------------------------------------------------------------


class TestRungCapMapping:
    def test_level_zero_is_uncapped(self):
        assert rung_cap_for(0) is None
        assert rung_cap_for(-3) is None

    def test_levels_map_down_the_ladder(self):
        assert rung_cap_for(1) == RUNG_REDUCED_BEAM
        assert rung_cap_for(2) == RUNG_COUNTING

    def test_deep_levels_clamp_to_last_cap(self):
        assert rung_cap_for(99) == LEVEL_RUNGS[-1] == RUNG_COUNTING

    def test_allows_respects_cap_ordering(self):
        assert DegradationLadder.allows(RUNG_FULL, None)
        assert not DegradationLadder.allows(RUNG_FULL, RUNG_REDUCED_BEAM)
        assert DegradationLadder.allows(RUNG_COUNTING, RUNG_REDUCED_BEAM)
        # linear is the safety net; no cap may exclude it
        for cap in (None, *ALL_RUNGS):
            assert DegradationLadder.allows(RUNG_LINEAR, cap)

    def test_tighter_cap_picks_the_cheaper_rung(self):
        assert DegradationLadder.tighter_cap(None, RUNG_COUNTING) == RUNG_COUNTING
        assert DegradationLadder.tighter_cap(RUNG_COUNTING, None) == RUNG_COUNTING
        assert (
            DegradationLadder.tighter_cap(RUNG_REDUCED_BEAM, RUNG_COUNTING)
            == RUNG_COUNTING
        )
        assert DegradationLadder.tighter_cap(None, None) is None


class TestBrownoutConfigValidation:
    def test_defaults_valid(self):
        BrownoutConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"high_depth": 0},
            {"low_depth": 8, "high_depth": 8},
            {"low_depth": -1},
            {"step_down_after": 0},
            {"step_up_after": 0},
            {"max_level": 0},
            {"max_level": len(LEVEL_RUNGS)},
            {"interval_s": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BrownoutConfig(**kwargs)


class TestBrownoutController:
    def controller(self, **kwargs):
        clock = FakeClock()
        defaults = dict(
            high_depth=4, low_depth=1, step_down_after=2, step_up_after=3,
            interval_s=0.25,
        )
        defaults.update(kwargs)
        return BrownoutController(BrownoutConfig(**defaults), clock=clock), clock

    def tick(self, ctl, clock, depth, p99=None):
        clock.advance(ctl.config.interval_s)
        return ctl.evaluate(depth, p99)

    def test_steps_down_only_after_sustained_pressure(self):
        ctl, clock = self.controller()
        assert self.tick(ctl, clock, depth=10) is None
        assert ctl.level == 0
        assert self.tick(ctl, clock, depth=10) == 1
        assert ctl.cap == RUNG_REDUCED_BEAM

    def test_rate_limited_by_interval(self):
        ctl, clock = self.controller(step_down_after=1)
        assert self.tick(ctl, clock, depth=10) == 1
        # same instant: ignored, no double step
        assert ctl.evaluate(10) is None
        assert ctl.level == 1

    def test_one_step_per_evaluation_until_max_level(self):
        ctl, clock = self.controller(step_down_after=1)
        assert self.tick(ctl, clock, depth=10) == 1
        assert self.tick(ctl, clock, depth=10) == 2
        # clamped at max_level
        assert self.tick(ctl, clock, depth=10) is None
        assert ctl.level == 2 == ctl.config.max_level

    def test_step_up_is_slower_than_step_down(self):
        ctl, clock = self.controller(step_down_after=1, step_up_after=3)
        self.tick(ctl, clock, depth=10)
        assert ctl.level == 1
        assert self.tick(ctl, clock, depth=0) is None
        assert self.tick(ctl, clock, depth=0) is None
        assert self.tick(ctl, clock, depth=0) == 0
        assert ctl.level == 0

    def test_dead_band_resets_both_streaks(self):
        ctl, clock = self.controller(step_down_after=2)
        self.tick(ctl, clock, depth=10)
        # between low and high: holds, and the over-streak starts over
        self.tick(ctl, clock, depth=2)
        self.tick(ctl, clock, depth=10)
        assert ctl.level == 0
        assert self.tick(ctl, clock, depth=10) == 1

    def test_queue_wait_p99_also_triggers(self):
        ctl, clock = self.controller(
            step_down_after=1, high_queue_wait_s=0.5
        )
        assert self.tick(ctl, clock, depth=0, p99=0.9) == 1

    def test_p99_ignored_when_latency_trigger_disabled(self):
        ctl, clock = self.controller(step_down_after=1, high_queue_wait_s=None)
        # depth 0 is under low_depth, so this is an under-pressure sample
        assert self.tick(ctl, clock, depth=0, p99=99.0) is None
        assert ctl.level == 0

    def test_full_cycle_recorded_and_reported(self):
        ctl, clock = self.controller(step_down_after=1, step_up_after=1)
        self.tick(ctl, clock, depth=10)
        self.tick(ctl, clock, depth=10)
        assert not ctl.completed_cycle()
        self.tick(ctl, clock, depth=0)
        self.tick(ctl, clock, depth=0)
        assert ctl.level == 0
        assert ctl.completed_cycle()
        doc = ctl.to_dict()
        assert doc["level"] == 0
        assert doc["cap"] is None
        assert doc["completed_cycle"] is True
        assert [(t["from"], t["to"]) for t in doc["transitions"]] == [
            (0, 1), (1, 2), (2, 1), (1, 0),
        ]
        assert {t["reason"] for t in doc["transitions"]} == {
            "pressure", "recovered",
        }


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


class TestOverloadError:
    def test_is_a_kamel_error_with_context(self):
        err = OverloadError("queue full", shard=3, policy="shed")
        assert isinstance(err, KamelError)
        assert err.shard == 3
        assert err.policy == "shed"


class TestConfigValidation:
    def test_serve_config_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            ServeConfig(admission_policy="drop-everything")

    def test_serve_config_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            ServeConfig(max_queue_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(queue_prefetch=0)
        with pytest.raises(ConfigError):
            ServeConfig(request_deadline_s=0.0)

    def test_loadtest_overload_flag(self):
        assert not LoadtestConfig().overload
        assert LoadtestConfig(offered_tps=5.0).overload
        assert LoadtestConfig(offered_multiplier=2.0).overload

    def test_loadtest_rejects_bad_overload_values(self):
        with pytest.raises(ConfigError):
            LoadtestConfig(offered_tps=-1.0)
        with pytest.raises(ConfigError):
            LoadtestConfig(offered_multiplier=0.0)
        with pytest.raises(ConfigError):
            LoadtestConfig(admission="nope")
        with pytest.raises(ConfigError):
            LoadtestConfig(request_deadline_s=0.0)

    def test_every_policy_accepted(self):
        for policy in ADMISSION_POLICIES:
            ServeConfig(max_queue_depth=4, admission_policy=policy)


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
            strategy="round_robin",
            max_queue_depth=2,
            admission_policy="shed",
            worker_chaos=_stall(1.5),
            drain_timeout_s=240.0,
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
            assert message["policy"] == "shed"
            assert "OverloadError" in message["error"]

    def test_queue_depth_stayed_bounded(self, run):
        pool, _ = run
        assert 0 < pool.stats.peak_queue_depth <= 2

    def test_shed_total_counter_matches(self, run):
        pool, _ = run
        assert obs.counter("repro.serve.shed_total").value == pool.stats.shed

    def test_gauges_settle_to_zero_after_drain(self, run):
        assert obs.gauge("repro.serve.queue_depth").value == 0
        assert obs.gauge("repro.serve.inflight").value == 0

    def test_healthz_reports_admission_and_shed(self, run):
        pool, _ = run
        doc = pool.healthz()
        assert doc["shed"] == pool.stats.shed
        assert doc["admission"]["max_queue_depth"] == 2
        assert doc["admission"]["policy"] == "shed"


class TestShedOldestAdmission:
    def test_newest_request_wins(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            strategy="round_robin",
            max_queue_depth=4,
            queue_prefetch=1,
            admission_policy="shed-oldest",
            worker_chaos=_stall(1.5),
            drain_timeout_s=240.0,
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
        _accounted(pool, sparse_feed, results)
        assert pool.stats.shed > 0
        # the newest submission survives: evictions hit the oldest
        # buffered entry, so the last trajectory must have completed
        last = results[sparse_feed[-1].traj_id]
        assert not last.get("shed")
        evicted = [
            m for m in results.values()
            if m.get("shed") and "evicted" in m["error"]
        ]
        assert evicted, "shed-oldest never evicted a buffered request"


class TestBlockAdmission:
    def test_backpressure_blocks_instead_of_shedding(
        self, saved_dir, sparse_feed
    ):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            strategy="round_robin",
            max_queue_depth=2,
            admission_policy="block",
            worker_chaos=_stall(0.8),
            drain_timeout_s=240.0,
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
        _accounted(pool, sparse_feed, results)
        assert pool.stats.shed == 0
        assert pool.stats.completed == len(sparse_feed)
        assert obs.counter("repro.serve.submit_blocked_total").value > 0


class TestDeadlineExpiry:
    @pytest.fixture(scope="class")
    def run(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            strategy="round_robin",
            request_deadline_s=0.4,
            worker_chaos=_stall(1.2),
            drain_timeout_s=240.0,
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


class TestBrownoutOnPool:
    @pytest.fixture(scope="class")
    def run(self, saved_dir, sparse_feed):
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=1,
            strategy="round_robin",
            max_queue_depth=6,
            admission_policy="shed",
            worker_chaos=_stall(1.0),
            brownout=BrownoutConfig(
                high_depth=3, low_depth=1,
                step_down_after=1, step_up_after=1, interval_s=0.0,
            ),
            drain_timeout_s=240.0,
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=240)
            level = pool.brownout_settle(timeout_s=10.0)
        return pool, results, level

    def test_stepped_down_under_pressure(self, run):
        pool, _, _ = run
        assert any(
            t.to_level > t.from_level for t in pool.brownout.transitions
        )

    def test_recovered_after_drain(self, run):
        pool, _, level = run
        assert level == 0
        assert pool.brownout.completed_cycle()

    def test_healthz_exposes_brownout_state(self, run):
        pool, _, _ = run
        doc = pool.healthz()
        assert doc["brownout"]["level"] == 0
        assert doc["brownout"]["completed_cycle"] is True

    def test_everything_still_accounted(self, run, sparse_feed):
        pool, results, _ = run
        _accounted(pool, sparse_feed, results)

    def test_broken_recorder_is_not_swallowed(self, saved_dir):
        """A recorder that cannot summarise its stages used to silently
        disable the brownout latency trigger; now the tick fails loudly."""

        class _BrokenRecorder:
            def stage_summary(self):
                raise RuntimeError("recorder broke")

        pool = ServingPool(  # never started: the tick needs no workers
            str(saved_dir), ServeConfig(workers=1, brownout=BrownoutConfig())
        )
        pool.flight = _BrokenRecorder()
        with pytest.raises(RuntimeError, match="recorder broke"):
            pool._brownout_tick()


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
            strategy="round_robin",
            journal_dir=str(journal_dir),
            crash_worker_after=2,
            max_queue_depth=3,
            admission_policy="shed",
            worker_chaos=_stall(0.8),
            drain_timeout_s=240.0,
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(feed, timeout=240)
        return pool, results, feed

    def test_worker_died_and_was_replaced(self, run):
        pool, _, _ = run
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
