"""Tests for the counting masked LM backend."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotFittedError
from repro.mlm import CountingMaskedLM, counting
from repro.obs import MetricsRegistry, set_registry

from tests.test_golden_counters import GOLDEN, golden_world

# A tiny "road": trips run 3 -> 4 -> 5 -> 6 -> 7 -> 8 forward and back.
FORWARD = [[3, 4, 5, 6, 7, 8]] * 10
BACKWARD = [[8, 7, 6, 5, 4, 3]] * 10
# A branch: from 5 trips either continue to 6.. or turn off to 20, 21.
BRANCHING = [[3, 4, 5, 6, 7, 8]] * 6 + [[3, 4, 5, 20, 21, 22]] * 6
VOCAB = 32


def fitted(sequences=FORWARD) -> CountingMaskedLM:
    return CountingMaskedLM().fit(sequences, VOCAB)


class TestFit:
    def test_is_fitted(self):
        model = CountingMaskedLM()
        assert not model.is_fitted
        model.fit(FORWARD, VOCAB)
        assert model.is_fitted

    def test_num_training_tokens(self):
        assert fitted().num_training_tokens == 60

    def test_incremental_fit_accumulates(self):
        model = CountingMaskedLM()
        model.fit(FORWARD[:5], VOCAB)
        model.fit(FORWARD[5:], VOCAB)
        assert model.num_training_tokens == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            CountingMaskedLM().fit(FORWARD, 0)

    def test_only_the_tables_the_rule_reads(self):
        model = fitted(BRANCHING + BACKWARD)
        assert {key[0] for key in model._tables} == {"l1r1", "dst", "rdst", "l1", "r1"}


class TestPredict:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            CountingMaskedLM().predict_masked([3, 0, 5], 1)

    def test_validates_arguments(self):
        model = fitted()
        with pytest.raises(ValueError):
            model.predict_masked([], 0)
        with pytest.raises(ValueError):
            model.predict_masked([3, 4], 5)

    def test_middle_token(self):
        model = fitted()
        predictions = model.predict_masked([4, 0, 6], 1, top_k=3)
        assert predictions[0][0] == 5

    def test_probabilities_sorted_and_normalized(self):
        model = fitted(BRANCHING)
        predictions = model.predict_masked([4, 0, 6], 1, top_k=10)
        probs = [p for _, p in predictions]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) <= 1.0 + 1e-9
        assert all(p > 0 for p in probs)

    def test_top_k_limits(self):
        model = fitted(BRANCHING)
        assert len(model.predict_masked([4, 0, 6], 1, top_k=1)) == 1

    def test_left_edge_prediction(self):
        model = fitted()
        predictions = model.predict_masked([0, 4, 5], 0, top_k=3)
        assert predictions[0][0] == 3

    def test_route_table_bridges_distant_pair(self):
        """Destination pull: between 4 and a *far* destination 8 the model
        must prefer 5 (the on-route successor) even though (4, 8) were
        never adjacent in training."""
        model = fitted()
        predictions = model.predict_masked([4, 0, 8], 1, top_k=3)
        assert predictions[0][0] == 5

    def test_route_disambiguates_branch(self):
        """From 5, trips continue to 6 or turn to 20; the far destination
        determines which successor the model must choose."""
        model = fitted(BRANCHING)
        toward_8 = model.predict_masked([5, 0, 8], 1, top_k=1)[0][0]
        toward_22 = model.predict_masked([5, 0, 22], 1, top_k=1)[0][0]
        assert toward_8 == 6
        assert toward_22 == 20

    def test_unseen_context_backs_off_to_unigram(self):
        model = fitted()
        predictions = model.predict_masked([30, 0, 31], 1, top_k=5)
        assert predictions  # unigram fallback still proposes known tokens
        assert all(3 <= token <= 8 for token, _ in predictions)

    def test_bidirectional_training_data(self):
        model = fitted(FORWARD + BACKWARD)
        predictions = model.predict_masked([7, 0, 5], 1, top_k=2)
        assert predictions[0][0] == 6


class TestPersistence:
    def test_round_trip(self):
        model = fitted(BRANCHING)
        restored = CountingMaskedLM.from_dict(model.to_dict())
        assert restored.num_training_tokens == model.num_training_tokens
        assert restored._tables == model._tables
        original = model.predict_masked([5, 0, 8], 1, top_k=5)
        recovered = restored.predict_masked([5, 0, 8], 1, top_k=5)
        assert [t for t, _ in original] == [t for t, _ in recovered]
        for (_, p1), (_, p2) in zip(original, recovered):
            assert p1 == pytest.approx(p2)

    def test_dict_is_json_serializable(self):
        import json

        payload = json.dumps(fitted().to_dict())
        restored = CountingMaskedLM.from_dict(json.loads(payload))
        assert restored.is_fitted


class TestPredictionProperties:
    """Hypothesis-driven invariants of predict_masked."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        position=st.integers(min_value=0, max_value=5),
        top_k=st.integers(min_value=1, max_value=12),
    )
    def test_output_well_formed(self, seed, position, top_k):
        import numpy as np

        rng = np.random.default_rng(seed)
        seqs = [
            [int(t) for t in rng.integers(3, 12, size=rng.integers(3, 8))]
            for _ in range(10)
        ]
        model = CountingMaskedLM().fit(seqs, 16)
        query = [int(t) for t in rng.integers(3, 12, size=6)]
        predictions = model.predict_masked(query, position, top_k=top_k)
        assert len(predictions) <= top_k
        probs = [p for _, p in predictions]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) <= 1.0 + 1e-9
        assert all(p > 0 for p in probs)
        assert all(t >= 3 for t, _ in predictions)  # never specials

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=9999))
    def test_deterministic(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        seqs = [
            [int(t) for t in rng.integers(3, 12, size=6)] for _ in range(8)
        ]
        a = CountingMaskedLM().fit(seqs, 16)
        b = CountingMaskedLM().fit(seqs, 16)
        query = [int(t) for t in rng.integers(3, 12, size=5)]
        assert a.predict_masked(query, 2) == b.predict_masked(query, 2)


class TestBatchPrediction:
    """The counting backend answers a batch through the base-class loop."""

    def test_batch_equals_scalar(self):
        model = CountingMaskedLM().fit(BRANCHING + BACKWARD, VOCAB)
        queries = [
            ([4, 0, 6], 1),
            ([3, 4, 5, 0, 21, 22], 3),  # another length in the same call
            ([0, 4, 5], 0),
            ([30, 0, 31], 1),  # unseen context: unigram back-off
            ([4, 0, 6], 1),  # a repeated query
        ]
        # A fresh copy answers the scalar side, so a memo the batch filled
        # cannot answer both sides of the comparison.
        fresh = CountingMaskedLM.from_dict(model.to_dict())
        assert model.predict_masked_batch(queries, top_k=4) == [
            fresh.predict_masked(tokens, position, top_k=4)
            for tokens, position in queries
        ]

    def test_empty_batch(self):
        assert fitted().predict_masked_batch([], top_k=3) == []

    def test_batch_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            CountingMaskedLM().predict_masked_batch([([3, 0, 5], 1)])


class TestAnswerMemo:
    """Answers are memoised per model by ``(left1, right1, top_k)``; a
    memoised answer is always the one a fresh model gives."""

    @pytest.mark.parametrize("cap", [counting.ANSWER_MEMO_ENTRIES, 2])
    @settings(max_examples=25, deadline=None)
    @given(
        sequences=st.lists(
            st.lists(st.integers(3, 9), min_size=2, max_size=7), min_size=1, max_size=8
        ),
        stream=st.lists(
            st.tuples(
                st.lists(st.integers(0, 10), min_size=1, max_size=5),
                st.integers(0, 4),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=12,
        ),
        repeats=st.integers(1, 3),
    )
    def test_every_answer_equals_a_fresh_models(
        self, cap, sequences, stream, repeats
    ):
        model = CountingMaskedLM().fit(sequences, 16)
        payload = model.to_dict()
        queries = [
            (tokens, position % len(tokens), top_k) for tokens, position, top_k in stream
        ] * repeats
        with mock.patch.object(counting, "ANSWER_MEMO_ENTRIES", cap):
            for tokens, position, top_k in queries:
                fresh = CountingMaskedLM.from_dict(payload)
                assert model.predict_masked(tokens, position, top_k) == (
                    fresh.predict_masked(tokens, position, top_k)
                )

    def test_a_repeated_context_is_scored_once(self):
        model = fitted(BRANCHING)
        with mock.patch.object(
            model, "_policy_value", wraps=model._policy_value
        ) as scored:
            for tokens in ([4, 0, 6], [3, 4, 0, 6, 7], [4, 0, 6, 8]):
                model.predict_masked(tokens, tokens.index(0), top_k=3)
            model.predict_masked([4, 0, 6], 1, top_k=2)  # another top_k
        assert scored.call_count == 2

    def test_mutating_an_answer_does_not_reach_the_memo(self):
        model = fitted(BRANCHING)
        first = model.predict_masked([5, 0, 8], 1)
        expected = list(first)
        first.clear()
        assert model.predict_masked([5, 0, 8], 1) == expected
        second = model.predict_masked([5, 0, 8], 1)
        second.append((31, 1.0))
        assert model.predict_masked([5, 0, 8], 1) == expected

    def test_fit_empties_the_memo(self):
        model = fitted(BACKWARD)
        before = model.predict_masked([4, 0, 6], 1)
        model.fit(BRANCHING, VOCAB)
        after = model.predict_masked([4, 0, 6], 1)
        assert after != before
        both = CountingMaskedLM().fit(BACKWARD + BRANCHING, VOCAB)
        assert after == both.predict_masked([4, 0, 6], 1)

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(counting, "ANSWER_MEMO_ENTRIES", 3)
        model = fitted(FORWARD + BACKWARD)
        for left in range(3, 13):
            model.predict_masked([left, 0, 6], 1)
        assert len(model._answers) <= 3

    def test_the_memo_is_never_saved(self):
        model = fitted(BRANCHING)
        payload = model.to_dict()
        model.predict_masked([5, 0, 8], 1)
        assert model.to_dict() == payload
        assert CountingMaskedLM.from_dict(payload)._answers == {}

    def test_a_memoised_context_still_validates(self):
        model = fitted()
        model.predict_masked([0, 4], 0)  # context (None, 4)
        with pytest.raises(ValueError):
            model.predict_masked([4, 0, 6], -1)  # reads as (None, 4) too
        with pytest.raises(ValueError):
            model.predict_masked([], 0)

    def test_a_memoised_context_still_needs_a_fit(self):
        model = CountingMaskedLM()
        model._answers[(4, 6, 10)] = ((5, 1.0),)
        with pytest.raises(NotFittedError):
            model.predict_masked([4, 0, 6], 1)


def test_a_warm_memo_changes_no_counter():
    """The golden-counter feed, imputed twice by one system: the second
    pass reads answers the first memoised, and counts exactly the same."""
    system, feed = golden_world()
    pinned = [
        name
        for name in GOLDEN
        if name.startswith(("repro.imputation.", "repro.constraints.rejected."))
    ]
    passes = []
    for _ in range(2):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            results = [system.impute(t) for t in feed]
        finally:
            set_registry(previous)
        snapshot = registry.snapshot()
        passes.append((results, {name: snapshot[name]["value"] for name in pinned}))
        assert any(m.model._answers for m in system.repository._single.values())
    (cold, cold_counts), (warm, warm_counts) = passes
    assert warm == cold
    assert warm_counts == cold_counts == {name: GOLDEN[name] for name in pinned}
