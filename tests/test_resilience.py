"""Unit tests for the resilience layer: deadlines, the chaos hook, ladder,
journal, quarantine, and input validation — all with injected clocks and
sleeps, so nothing here waits on real time."""

import math

import pytest

from repro import Kamel, KamelConfig
from repro.core.imputation import BeamSearchImputer, IterativeImputer, SegmentImputer

from repro.errors import DeadlineExceeded, KamelError, QuarantinedInputError
from repro.geo import Point, Trajectory
from repro.mlm.base import MaskedModel
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.resilience import (
    ALL_RUNGS,
    ChaosConfig,
    ChaosMonkey,
    Deadline,
    InjectedFault,
    MAX_COORDINATE_M,
    PipelineGuards,
    QuarantineStore,
    RUNG_COUNTING,
    RUNG_FULL,
    RUNG_LINEAR,
    StreamJournal,
    trajectory_from_payload,
    trajectory_to_payload,
    validate_trajectory,
    chaos_scope,
)
from repro.resilience.ladder import rungs_for

from tests.test_search_state import observed


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
        deadline = Deadline(math.inf, clock=FakeClock())
        assert deadline.is_unlimited
        assert not deadline.expired
        assert deadline.remaining() == math.inf
        deadline.check()  # never raises

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)


class TestDegradationLadder:
    def test_full_ladder_from_default_config(self):
        assert rungs_for(KamelConfig()) == ALL_RUNGS

    def test_iterative_config_skips_reduced_beam(self):
        assert rungs_for(KamelConfig(imputer="iterative")) == (
            RUNG_FULL, RUNG_COUNTING, RUNG_LINEAR,
        )

    def test_every_ladder_has_the_counting_rung(self):
        """Every fit builds the counting rung's model, so every ladder has
        the rung, right above ``linear``."""
        for config in (
            KamelConfig(), KamelConfig(imputer="iterative"), KamelConfig(use_multipoint=False),
        ):
            assert rungs_for(config)[-2:] == (RUNG_COUNTING, RUNG_LINEAR)
            system = Kamel(config).fit([_traj("a"), _traj("b")])
            assert system._fallback_model is not None and system._fallback_model.is_fitted


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
        for exc_type in (DeadlineExceeded, QuarantinedInputError):
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


class _StubBackend(MaskedModel):
    """A real backend with the scalar method only, so a batch runs through
    the inherited loop."""

    def fit(self, sequences, vocab_size):
        raise NotImplementedError

    def predict_masked(self, tokens, position, top_k=10):
        return [(7, 1.0)]

    is_fitted = True
    num_training_tokens = 0


class TestGuardedBatch:
    """The ``model.predict`` hook fires once per invocation, whatever its size."""

    QUERIES = [([3, 0, 5], 1), ([3, 4, 0, 6], 2), ([0, 4], 0)]

    def test_one_hook_firing_per_batch_whatever_its_rows(self):
        guards = PipelineGuards()
        guards.chaos = ChaosMonkey(ChaosConfig(seed=0))
        inner = _RowCountingModel(_StubBackend())
        guarded = guards.guard_model(inner)
        assert guarded.predict_masked_batch(self.QUERIES, top_k=4) == [[(7, 1.0)]] * 3
        assert guarded.predict_masked_batch(self.QUERIES[:1]) == [[(7, 1.0)]]
        assert guards.chaos.report.calls == {"model.predict": 2}
        assert (inner.invocations, inner.rows) == (2, 4)

    def test_a_fault_reaches_the_caller_before_the_model(self):
        guards = PipelineGuards()
        guards.chaos = ChaosMonkey(ChaosConfig(
            seed=0, failure_rate=1.0, failure_sites=("model.predict",)
        ))
        inner = _RowCountingModel(_StubBackend())
        with pytest.raises(InjectedFault):
            guards.guard_model(inner).predict_masked_batch(self.QUERIES)
        assert guards.chaos.report.faults == {"model.predict": 1}
        assert inner.invocations == 0

    def test_no_monkey_no_proxy(self):
        model = _StubBackend()
        assert PipelineGuards().guard_model(model) is model


@pytest.fixture(scope="module")
def starved_kamel(small_dataset):
    """A system whose budget of 5 queries fails both beam rungs on any
    real gap, so every segment walks the ladder down to the counting rung."""
    train, _ = small_dataset.split(seed=1)
    return Kamel(KamelConfig(max_model_calls=5)).fit(train)


class TestLadderCandidateMemo:
    def _spy(self, system, monkeypatch):
        """Route repository models through row counters and log each rung's
        search by segment (strategy, search state, result, rows it sent to
        the model, answers the state held when the run began)."""
        counters = {}
        guard_model = system.guards.guard_model

        def counted(model):
            counter = counters.setdefault(id(model), _RowCountingModel(model))
            return guard_model(counter)

        monkeypatch.setattr(system.guards, "guard_model", counted)
        runs = []  # (ctx, its rungs' runs), in the order the segments start
        search_rounds = SegmentImputer.rounds

        def logged(self, ctx, deadline, search):
            run = [self, search, None, 0, len(search.answers)]
            rungs = next((rungs for seen, rungs in runs if seen is ctx), None)
            if rungs is None:  # a new segment: its rungs share ctx
                rungs = []
                runs.append((ctx, rungs))
            rungs.append(run)

            def sent(ask):
                run[3] += len(ask.queries)

            run[2] = yield from observed(search_rounds(self, ctx, deadline, search), sent)
            return run[2]

        monkeypatch.setattr(SegmentImputer, "rounds", logged)
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
            assert counting[0].model is starved_kamel._fallback_model
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
        self, starved_kamel, small_split, monkeypatch
    ):
        """Chaos at ``model.predict`` fails every pooled invocation: each
        struck segment leaves the repository model's rungs as a
        ``rung_error`` and is served by the counting rung (outside the
        hook, memo-less) or the straight line."""
        system = starved_kamel
        monkey = ChaosMonkey(
            ChaosConfig(seed=1, failure_rate=1.0, failure_sites=("model.predict",)),
            sleep=lambda _: None,
        )
        # Row counters on both sides of the hook: outside it, every pooled
        # invocation; inside it, what reached the repository model.
        inside, outside = [], []
        guard_model = system.guards.guard_model

        def counted(model):
            inside.append(_RowCountingModel(model))
            outside.append(_RowCountingModel(guard_model(inside[-1])))
            return outside[-1]

        monkeypatch.setattr(system.guards, "guard_model", counted)
        _, test = small_split
        with chaos_scope(monkey, system=system):
            results = [system.impute(t.sparsify(600.0)) for t in test[:4]]
        segments = [s for r in results for s in r.segments]
        # Segments that got as far as asking the repository model (others
        # have adjacent or unseen endpoint cells).
        struck = [s for s in segments if s.fallback_reason == "rung_error"]
        assert struck
        assert {s.rung for s in struck} <= {RUNG_COUNTING, RUNG_LINEAR}
        assert all(
            s.fallback_reason == "endpoint_unseen" or s.model_calls == 0
            for s in segments if s not in struck
        )
        # One hook firing per pooled invocation, each one a fault: no
        # invocation re-runs, and none reached the model.
        invocations = sum(m.invocations for m in outside)
        assert monkey.report.calls["model.predict"] == invocations
        assert monkey.report.faults["model.predict"] == invocations
        assert sum(m.invocations for m in inside) == 0
        # So only counting-rung queries are billed.
        assert all(s.model_calls <= 5 for s in struck)
