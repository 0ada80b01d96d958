"""Unit tests for the resilience layer: deadlines, breakers, ladder,
journal, quarantine, and input validation — all with injected clocks and
sleeps, so nothing here waits on real time."""

import math
import random

import pytest

from repro import Kamel, KamelConfig
from repro.core.imputation import BeamSearchImputer, IterativeImputer, SegmentImputer

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    KamelError,
    QuarantinedInputError,
)
from repro.geo import Point, Trajectory
from repro.mlm.base import MaskedModel
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.resilience import (
    ALL_RUNGS,
    ChaosConfig,
    ChaosMonkey,
    CircuitBreaker,
    Deadline,
    DegradationLadder,
    GuardedModel,
    InjectedFault,
    MAX_COORDINATE_M,
    PipelineGuards,
    QuarantineStore,
    RetryPolicy,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_LINEAR,
    RUNG_REDUCED_BEAM,
    StreamJournal,
    trajectory_from_payload,
    trajectory_to_payload,
    validate_trajectory,
    chaos_scope,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_counts_down(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_check_raises_typed_error_with_overrun(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("fine")  # inside budget: no-op
        clock.advance(1.25)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("segment imputation")
        assert excinfo.value.overrun_s == pytest.approx(0.25)
        assert isinstance(excinfo.value, KamelError)

    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited(clock=FakeClock())
        assert deadline.is_unlimited
        assert not deadline.expired
        assert deadline.remaining() == math.inf
        deadline.check()  # never raises

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_combine_picks_tightest(self):
        clock = FakeClock()
        loose = Deadline.after(10.0, clock=clock)
        tight = Deadline.after(1.0, clock=clock)
        combined = Deadline.combine(loose, None, tight)
        assert combined.expires_at == tight.expires_at
        assert Deadline.combine(None, None).is_unlimited

    def test_sub_budget(self):
        clock = FakeClock()
        parent = Deadline.after(10.0, clock=clock)
        assert parent.sub_budget(None) is parent
        child = parent.sub_budget(1.0)
        assert child.remaining() == pytest.approx(1.0)
        # A child can never outlive its parent.
        clock.advance(9.5)
        late_child = parent.sub_budget(5.0)
        assert late_child.remaining() == pytest.approx(0.5)


class TestCircuitBreaker:
    def make(self, clock, threshold=3, recovery=10.0):
        return CircuitBreaker(
            "test", failure_threshold=threshold, recovery_s=recovery, clock=clock
        )

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        boom = RuntimeError("boom")

        def fail():
            raise boom

        for _ in range(3):
            with pytest.raises(RuntimeError):
                breaker.call(fail)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_success_resets_failure_count(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(self._raise)
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.consecutive_failures == 0
        assert breaker.state == "closed"

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                breaker.call(self._raise)
        assert breaker.state == "open"
        clock.advance(10.0)
        # The first call after recovery_s is the half-open probe.
        assert breaker.call(lambda: "probe ok") == "probe ok"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                breaker.call(self._raise)
        clock.advance(10.0)
        with pytest.raises(RuntimeError):
            breaker.call(self._raise)
        assert breaker.state == "open"
        assert breaker.open_count == 2

    @staticmethod
    def _raise():
        raise RuntimeError("boom")


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(attempts=2, base_delay_s=0.01, seed=0, sleep=sleeps.append)
        attempts = iter([InjectedFault("1"), InjectedFault("2"), "ok"])

        def flaky():
            outcome = next(attempts)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert policy.call(flaky) == "ok"
        assert len(sleeps) == 2
        assert policy.total_retries == 2

    def test_reraises_after_exhausting_attempts(self):
        policy = RetryPolicy(attempts=1, base_delay_s=0.0, seed=0, sleep=lambda _: None)
        with pytest.raises(InjectedFault):
            policy.call(self._raise)

    def test_backoff_grows_and_jitter_is_seeded(self):
        a = RetryPolicy(attempts=5, base_delay_s=0.01, max_delay_s=1.0, seed=42)
        b = RetryPolicy(attempts=5, base_delay_s=0.01, max_delay_s=1.0, seed=42)
        delays_a = [a.delay_for(n) for n in range(1, 5)]
        delays_b = [b.delay_for(n) for n in range(1, 5)]
        assert delays_a == delays_b  # deterministic under a fixed seed
        for n, delay in enumerate(delays_a, start=1):
            raw = 0.01 * 2 ** (n - 1)
            assert 0.5 * raw <= delay < raw  # jitter in [0.5, 1.0)

    @staticmethod
    def _raise():
        raise InjectedFault("always")


class _FlakyModel:
    """A fake MaskedModel whose predict fails the first N calls."""

    def __init__(self, failures: int = 0) -> None:
        self.failures = failures
        self.calls = 0

    def predict_masked(self, tokens, position, top_k=10):
        self.calls += 1
        if self.calls <= self.failures:
            raise InjectedFault("flaky")
        return [(7, 1.0)]

    @property
    def is_fitted(self):
        return True

    @property
    def num_training_tokens(self):
        return 0


class TestGuardedModel:
    def make_guards(self, **kwargs):
        kwargs.setdefault("sleep", lambda _: None)
        return PipelineGuards(**kwargs)

    def test_transient_fault_absorbed_by_retry(self):
        guards = self.make_guards(retry_attempts=2)
        model = _FlakyModel(failures=2)
        guarded = guards.guard_model(model)
        assert guarded.predict_masked([1, 2], 1) == [(7, 1.0)]
        assert model.calls == 3
        assert guards.inference_breaker.state == "closed"

    def test_persistent_failure_opens_circuit(self):
        clock = FakeClock()
        guards = self.make_guards(
            failure_threshold=2, retry_attempts=0, clock=clock
        )
        model = _FlakyModel(failures=10 ** 6)
        guarded = guards.guard_model(model)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                guarded.predict_masked([1, 2], 1)
        calls_when_opened = model.calls
        with pytest.raises(CircuitOpenError):
            guarded.predict_masked([1, 2], 1)
        assert model.calls == calls_when_opened  # short-circuited, not called

    def test_guard_model_is_idempotent(self):
        guards = self.make_guards()
        model = _FlakyModel()
        guarded = guards.guard_model(model)
        assert guards.guard_model(guarded) is guarded


class TestDegradationLadder:
    def test_full_ladder_from_default_config(self):
        from repro.core.config import KamelConfig

        ladder = DegradationLadder.for_config(KamelConfig())
        assert ladder.rungs == ALL_RUNGS

    def test_iterative_config_skips_reduced_beam(self):
        from repro.core.config import KamelConfig

        ladder = DegradationLadder.for_config(KamelConfig(imputer="iterative"))
        assert RUNG_REDUCED_BEAM not in ladder.rungs
        assert ladder.rungs[-1] == RUNG_LINEAR

    def test_no_fallback_model_skips_counting(self):
        from repro.core.config import KamelConfig

        ladder = DegradationLadder.for_config(KamelConfig(enable_fallback_model=False))
        assert RUNG_COUNTING not in ladder.rungs

    def test_must_end_in_linear(self):
        with pytest.raises(ValueError):
            DegradationLadder((RUNG_FULL, RUNG_COUNTING))

    def test_rungs_must_be_ordered(self):
        with pytest.raises(ValueError):
            DegradationLadder((RUNG_COUNTING, RUNG_FULL, RUNG_LINEAR))

    def test_below(self):
        ladder = DegradationLadder(ALL_RUNGS)
        assert ladder.below(RUNG_FULL) == (RUNG_REDUCED_BEAM, RUNG_COUNTING, RUNG_LINEAR)
        assert ladder.below(RUNG_LINEAR) == ()

    def test_failure_and_degraded_split(self):
        assert DegradationLadder.is_failure(RUNG_LINEAR)
        assert not DegradationLadder.is_failure(RUNG_COUNTING)
        assert DegradationLadder.is_degraded(RUNG_COUNTING)
        assert not DegradationLadder.is_degraded(RUNG_FULL)


def _traj(traj_id="t1"):
    return Trajectory(
        traj_id, [Point(0.0, 0.0, t=0.0), Point(100.0, 50.0, t=30.0)]
    )


class TestJournal:
    def test_payload_round_trip(self):
        traj = _traj()
        assert trajectory_from_payload(trajectory_to_payload(traj)) == traj

    def test_pending_is_begun_minus_done(self, tmp_path):
        journal = StreamJournal(tmp_path / "wal.jsonl")
        a, b, c = _traj("a"), _traj("b"), _traj("c")
        for traj in (a, b, c):
            journal.begin(traj)
        journal.done("a")
        journal.done("c")
        journal.close()

        recovered = StreamJournal(tmp_path / "wal.jsonl")
        pending = recovered.pending()
        assert [t.traj_id for t in pending] == ["b"]
        assert pending[0] == b

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = StreamJournal(path)
        journal.begin(_traj("whole"))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"event": "begin", "traj_id": "torn", "points": [[0')
        pending = StreamJournal(path).pending()
        assert [t.traj_id for t in pending] == ["whole"]

    def test_empty_or_missing_journal(self, tmp_path):
        assert StreamJournal(tmp_path / "never_written.jsonl").pending() == []


class TestQuarantine:
    def test_add_and_read_back(self, tmp_path):
        store = QuarantineStore(tmp_path / "dead.jsonl")
        store.add(_traj("bad"), reason="non_finite_coordinate")
        store.close()

        reread = QuarantineStore(tmp_path / "dead.jsonl")
        assert len(reread) == 1
        entry = reread.entries()[0]
        assert entry.traj_id == "bad"
        assert entry.reason == "non_finite_coordinate"
        assert entry.trajectory == _traj("bad")


class TestValidation:
    def test_clean_trajectory_passes(self):
        validate_trajectory(_traj())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_rejected(self, bad):
        traj = Trajectory("bad", [Point(bad, 0.0, t=0.0), Point(1.0, 1.0, t=1.0)])
        with pytest.raises(QuarantinedInputError) as excinfo:
            validate_trajectory(traj)
        assert excinfo.value.reason == "non_finite_coordinate"

    def test_non_finite_timestamp_rejected(self):
        traj = Trajectory(
            "bad", [Point(0.0, 0.0, t=float("nan")), Point(1.0, 1.0, t=1.0)]
        )
        with pytest.raises(QuarantinedInputError) as excinfo:
            validate_trajectory(traj)
        assert excinfo.value.reason == "non_finite_timestamp"

    def test_absurd_magnitude_rejected(self):
        traj = Trajectory(
            "far", [Point(MAX_COORDINATE_M * 2, 0.0, t=0.0), Point(1.0, 1.0, t=1.0)]
        )
        with pytest.raises(QuarantinedInputError) as excinfo:
            validate_trajectory(traj)
        assert excinfo.value.reason == "coordinate_out_of_range"

    def test_reversed_and_duplicate_timestamps_are_processable(self):
        # Deliberately NOT rejected: the pipeline handles these (see
        # tests/test_robustness.py), so quarantining them would lose data.
        validate_trajectory(
            Trajectory("rev", [Point(0.0, 0.0, t=100.0), Point(9.0, 9.0, t=0.0)])
        )
        validate_trajectory(
            Trajectory("dup", [Point(0.0, 0.0, t=5.0), Point(9.0, 9.0, t=5.0)])
        )


class TestErrorHierarchy:
    def test_resilience_errors_are_kamel_errors(self):
        for exc_type in (DeadlineExceeded, CircuitOpenError, QuarantinedInputError):
            assert issubclass(exc_type, KamelError)

    def test_injected_fault_is_not_a_kamel_error(self):
        # Chaos faults simulate *infrastructure* failures, which the
        # library must survive, not failures the library itself raises.
        assert not issubclass(InjectedFault, KamelError)


class TestKamelDeadlineIntegration:
    def test_expired_deadline_degrades_to_linear_not_hang(self, trained_kamel, small_split):
        _, test = small_split
        sparse = test[0].sparsify(600.0)
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        clock.advance(1.0)  # already expired when impute starts
        result = trained_kamel.impute(sparse, deadline=deadline)
        assert len(result.trajectory) >= len(sparse)
        for segment in result.segments:
            assert segment.rung == RUNG_LINEAR
            assert segment.fallback_reason == "deadline"

    def test_generous_deadline_changes_nothing(self, trained_kamel, small_split):
        _, test = small_split
        sparse = test[1].sparsify(600.0)
        unlimited = trained_kamel.impute(sparse)
        with_budget = trained_kamel.impute(sparse, deadline=Deadline.after(60.0))
        assert unlimited.trajectory == with_budget.trajectory
        assert [s.rung for s in unlimited.segments] == [
            s.rung for s in with_budget.segments
        ]

    def test_segment_outcomes_always_carry_a_rung(self, trained_kamel, small_split):
        _, test = small_split
        result = trained_kamel.impute(test[2].sparsify(700.0))
        for segment in result.segments:
            assert segment.rung in ALL_RUNGS
            assert segment.failed == (segment.rung == RUNG_LINEAR)
        assert sum(result.rung_counts.values()) == result.num_segments


class _RowCountingModel(MaskedModel):
    """Forwards to ``inner``, counting invocations and the rows in them."""

    def __init__(self, inner):
        self.inner = inner
        self.invocations = 0
        self.rows = 0

    def fit(self, sequences, vocab_size):
        raise NotImplementedError

    def predict_masked(self, tokens, position, top_k=10):
        return self.predict_masked_batch([(tokens, position)], top_k)[0]

    def predict_masked_batch(self, queries, top_k=10):
        self.invocations += 1
        self.rows += len(queries)
        return self.inner.predict_masked_batch(queries, top_k)

    @property
    def is_fitted(self):
        return self.inner.is_fitted

    @property
    def num_training_tokens(self):
        return self.inner.num_training_tokens


class _FlakyBackend(MaskedModel):
    """:class:`_FlakyModel` as a real backend: scalar method only, so a
    batch runs through the inherited loop and fails with its first row."""

    def __init__(self, failures: int = 0) -> None:
        self.failures = failures
        self.calls = 0

    def fit(self, sequences, vocab_size):
        raise NotImplementedError

    def predict_masked(self, tokens, position, top_k=10):
        self.calls += 1
        if self.calls <= self.failures:
            raise InjectedFault("flaky")
        return [(7, 1.0)]

    is_fitted = True
    num_training_tokens = 0


class TestGuardedBatch:
    """One ``predict_masked_batch`` is one guarded attempt, whatever its size."""

    QUERIES = [([3, 0, 5], 1), ([3, 4, 0, 6], 2), ([0, 4], 0)]

    def _fault_then_pass_seed(self, rate=0.5):
        for seed in range(100):
            rng = random.Random(seed)
            if rng.random() < rate <= rng.random():
                return seed
        raise AssertionError("no seed with a fault-then-pass opening")

    def test_one_injected_fault_is_absorbed_by_one_retry(self):
        guards = PipelineGuards(retry_attempts=2, sleep=lambda _: None)
        guards.chaos = ChaosMonkey(ChaosConfig(
            seed=self._fault_then_pass_seed(), failure_rate=0.5,
            failure_sites=("model.predict",),
        ))
        inner = _RowCountingModel(_FlakyBackend())
        answers = guards.guard_model(inner).predict_masked_batch(self.QUERIES, top_k=4)
        assert answers == [[(7, 1.0)]] * 3
        # The hook fired once per attempt — not once per row — and the fault
        # struck before the batch reached the model, which then ran it once.
        assert guards.chaos.report.calls == {"model.predict": 2}
        assert guards.chaos.report.faults == {"model.predict": 1}
        assert guards.inference_retry.total_retries == 1
        assert (inner.invocations, inner.rows) == (1, 3)
        assert guards.inference_breaker.state == "closed"

    def test_a_retried_fault_reruns_the_whole_batch(self):
        guards = PipelineGuards(retry_attempts=2, sleep=lambda _: None)
        flaky = _FlakyBackend(failures=1)
        inner = _RowCountingModel(flaky)
        answers = guards.guard_model(inner).predict_masked_batch(self.QUERIES)
        assert answers == [[(7, 1.0)]] * 3
        assert (inner.invocations, inner.rows) == (2, 6)

    def test_repeated_faults_open_the_breaker_per_invocation(self):
        clock = FakeClock()
        guards = PipelineGuards(
            failure_threshold=2, retry_attempts=0, clock=clock, sleep=lambda _: None
        )
        inner = _RowCountingModel(_FlakyBackend(failures=10 ** 6))
        guarded = guards.guard_model(inner)
        for _ in range(2):  # two failed invocations of three rows: threshold 2
            with pytest.raises(InjectedFault):
                guarded.predict_masked_batch(self.QUERIES)
        with pytest.raises(CircuitOpenError):
            guarded.predict_masked_batch(self.QUERIES)
        assert inner.invocations == 2  # short-circuited, not called


@pytest.fixture(scope="module")
def starved_kamel(small_dataset):
    """A system whose budget of 5 queries fails both beam rungs on any
    real gap, so every segment walks the ladder down to the counting rung."""
    train, _ = small_dataset.split(seed=1)
    return Kamel(KamelConfig(max_model_calls=5)).fit(train)


class TestLadderCandidateMemo:
    def _spy(self, system, monkeypatch):
        """Route repository models through row counters and log each rung's
        ``impute_segment`` (strategy, search state, result, rows the model
        saw, answers the state held when the run began)."""
        counters = {}
        guard_model = system.guards.guard_model

        def counted(model):
            counter = counters.setdefault(id(model), _RowCountingModel(model))
            return guard_model(counter)

        monkeypatch.setattr(system.guards, "guard_model", counted)
        runs = []
        impute_segment = SegmentImputer.impute_segment

        def logged(self, ctx, deadline=None, search=None):
            before = sum(c.rows for c in counters.values())
            held = len(search.answers)
            result = impute_segment(self, ctx, deadline, search)
            rows = sum(c.rows for c in counters.values()) - before
            if not runs or runs[-1][0] is not ctx:  # a new segment: its rungs share ctx
                runs.append((ctx, []))
            runs[-1][1].append((self, search, result, rows, held))
            return result

        monkeypatch.setattr(SegmentImputer, "impute_segment", logged)
        return counters, runs

    def test_reduced_beam_rung_reads_what_the_full_rung_asked(
        self, starved_kamel, small_split, monkeypatch
    ):
        counters, runs = self._spy(starved_kamel, monkeypatch)
        _, test = small_split
        result = starved_kamel.impute(test[0].sparsify(600.0))
        assert len(runs) == result.num_segments

        descended = [
            (ctx, rungs, outcome)
            for (ctx, rungs), outcome in zip(runs, result.segments)
            if rungs[0][2].failed
        ]
        assert descended  # the budget of 5 starves the longer gaps
        for outcome_ctx, (full, reduced, counting), outcome in descended:
            assert isinstance(full[0], BeamSearchImputer)
            assert isinstance(reduced[0], BeamSearchImputer)
            assert reduced[0].config.beam_size < full[0].config.beam_size
            # One search state per segment for all three rungs; the answers
            # in it pass between the two beam rungs only.
            assert full[1] is not None and reduced[1] is full[1] is counting[1]
            assert full[1].ctx is outcome_ctx
            assert full[4] == 0 and reduced[4] == full[3] and counting[4] == 0
            assert isinstance(counting[0], IterativeImputer)
            assert not isinstance(counting[0].model, GuardedModel)
            # The narrow beam re-walks the wide beam's partial segments: it
            # is charged its five queries and sends none to the model ...
            assert full[2].model_calls == reduced[2].model_calls == 5
            assert 0 < full[3] <= 5 and reduced[3] == 0
            # ... and the segment is still billed for every query asked.
            assert outcome.model_calls == 10 + counting[2].model_calls
            assert outcome.rung in (RUNG_COUNTING, RUNG_LINEAR)
        searches = [rungs[0][1] for _, rungs in runs]
        assert len({id(s) for s in searches}) == len(searches)  # never shared across segments
        assert sum(c.rows for c in counters.values()) < sum(
            run[2].model_calls for _, rungs in runs for run in rungs[:2]
        )

    def test_memo_counters(self, starved_kamel, small_split):
        previous = set_registry(MetricsRegistry())
        try:
            _, test = small_split
            result = starved_kamel.impute(test[0].sparsify(600.0))
            registry = get_registry()
            calls = registry.get("repro.imputation.model_calls_total").value
            hits = registry.get("repro.imputation.memo_hits_total").value
            invocations = registry.get("repro.imputation.model_invocations_total").value
        finally:
            set_registry(previous)
        assert calls == result.total_model_calls
        reduced_runs = sum(s.rung in (RUNG_COUNTING, RUNG_LINEAR) for s in result.segments)
        assert reduced_runs and hits >= 5 * reduced_runs  # each reduced-beam rung, whole
        assert 0 < invocations <= calls - hits

    def test_repeated_inference_faults_descend_to_the_counting_rung(
        self, starved_kamel, small_split
    ):
        """Chaos at ``model.predict`` fails every batched round: after
        ``threshold`` failed invocations the circuit opens and segments are
        served by the (unguarded, memo-less) counting rung."""
        system = starved_kamel
        system.guards.reset()
        monkey = ChaosMonkey(
            ChaosConfig(seed=1, failure_rate=1.0, failure_sites=("model.predict",)),
            sleep=lambda _: None,
        )
        _, test = small_split
        try:
            with chaos_scope(monkey, system=system):
                results = [system.impute(t.sparsify(600.0)) for t in test[:4]]
            assert system.guards.inference_breaker.state == "open"
        finally:
            system.guards.reset()
        # Segments that got as far as asking the repository model (others
        # have adjacent or unseen endpoint cells): its rungs fail while the
        # circuit counts up to its threshold, then are refused.
        segments = [
            s for r in results for s in r.segments
            if s.fallback_reason in ("rung_error", "circuit_open")
        ]
        reasons = [s.fallback_reason for s in segments]
        assert set(reasons) == {"rung_error", "circuit_open"}
        assert reasons == sorted(reasons, reverse=True)
        assert {s.rung for s in segments} <= {RUNG_COUNTING, RUNG_LINEAR}
        # One hook firing per guarded attempt, and the circuit opened after
        # `threshold` failed invocations of (1 + retries) attempts each.
        attempts = 1 + system.config.retry_attempts
        assert monkey.report.calls["model.predict"] == (
            system.config.breaker_failure_threshold * attempts
        )
        # Nothing reached a guarded model, so only counting-rung queries are billed.
        assert all(s.model_calls <= 5 for s in segments)
