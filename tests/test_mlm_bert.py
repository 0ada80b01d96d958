"""Tests for the numpy BERT masked LM."""

import numpy as np
import pytest

from repro.errors import ConfigError, NotFittedError
from repro.mlm import BertConfig, BertMaskedLM, BertModel, TrainingConfig
from repro.mlm.bert import _mask_batch
from repro.nn import Tensor, no_grad


def tiny_config(**overrides) -> BertConfig:
    defaults = dict(vocab_size=24, hidden_size=16, num_layers=1, num_heads=2, max_seq_len=12)
    defaults.update(overrides)
    return BertConfig(**defaults)


def corridor_corpus(n=100, seed=0):
    """Sequences walking a token corridor 3..22 (forward and backward)."""
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n):
        start = int(rng.integers(3, 17))
        run = list(range(start, min(start + 6, 23)))
        seqs.append(run if rng.random() < 0.5 else run[::-1])
    return seqs


class TestConfig:
    def test_vocab_too_small(self):
        with pytest.raises(ConfigError):
            BertConfig(vocab_size=3)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            BertConfig(vocab_size=10, hidden_size=10, num_heads=3)

    def test_ffn_defaults_to_4x(self):
        assert tiny_config().ffn_size == 64

    def test_layer_count_validation(self):
        with pytest.raises(ConfigError):
            BertConfig(vocab_size=10, num_layers=0)


class TestModelForward:
    def test_logit_shapes(self):
        model = BertModel(tiny_config())
        logits = model(np.array([[3, 4, 5], [6, 7, 0]]))
        assert logits.shape == (2, 3, 24)

    def test_rejects_overlong_sequence(self):
        model = BertModel(tiny_config(max_seq_len=4))
        with pytest.raises(ConfigError):
            model(np.zeros((1, 5), dtype=int))

    def test_padding_does_not_change_other_positions(self):
        model = BertModel(tiny_config())
        model.eval()
        short = model(np.array([[3, 4, 5]])).data
        padded = model(np.array([[3, 4, 5, 0, 0]])).data
        np.testing.assert_allclose(short[0, :3], padded[0, :3], atol=1e-8)

    def test_deterministic_in_eval_mode(self):
        model = BertModel(tiny_config())
        model.eval()
        ids = np.array([[3, 4, 5, 6]])
        np.testing.assert_allclose(model(ids).data, model(ids).data)

    def test_parameter_count_positive(self):
        assert BertModel(tiny_config()).num_parameters() > 1000


class TestMasking:
    def test_mask_batch_targets(self):
        rng = np.random.default_rng(0)
        batch = np.tile(np.arange(3, 11), (8, 1))
        inputs, targets = _mask_batch(batch, 0.15, 24, rng)
        chosen = targets != -100
        assert chosen.any()
        # Targets carry original tokens at the chosen positions.
        np.testing.assert_array_equal(targets[chosen], batch[chosen])
        # Unchosen positions are untouched in the input.
        np.testing.assert_array_equal(inputs[~chosen], batch[~chosen])

    def test_specials_never_masked(self):
        rng = np.random.default_rng(0)
        batch = np.zeros((4, 6), dtype=np.int64)  # all PAD
        batch[:, 0] = 5
        inputs, targets = _mask_batch(batch, 0.9, 24, rng)
        assert (targets[:, 1:] == -100).all()

    def test_every_row_gets_a_mask(self):
        rng = np.random.default_rng(0)
        batch = np.tile(np.arange(3, 9), (16, 1))
        _, targets = _mask_batch(batch, 0.01, 24, rng)  # tiny prob
        assert ((targets != -100).sum(axis=1) >= 1).all()

    def test_mask_ratio_roughly_respected(self):
        rng = np.random.default_rng(0)
        batch = np.tile(np.arange(3, 23), (200, 1))
        _, targets = _mask_batch(batch, 0.15, 24, rng)
        ratio = (targets != -100).mean()
        assert 0.10 < ratio < 0.20


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        model = BertMaskedLM(
            tiny_config(hidden_size=32, num_layers=2),
            TrainingConfig(epochs=40, batch_size=16, lr=3e-3, seed=1),
        )
        model.fit(corridor_corpus(), vocab_size=24)
        return model

    def test_loss_decreases(self, trained):
        history = trained.loss_history
        assert history[-1] < history[0] * 0.6

    def test_is_fitted(self, trained):
        assert trained.is_fitted
        assert trained.num_training_tokens > 0

    def test_predict_before_fit_raises(self):
        model = BertMaskedLM(tiny_config())
        with pytest.raises(NotFittedError):
            model.predict_masked([3, 4, 5], 1)

    def test_prediction_learns_corridor(self, trained):
        """Between 7 and 9 the only token ever observed is 8."""
        predictions = trained.predict_masked([6, 7, 0, 9, 10], 2, top_k=3)
        assert predictions[0][0] == 8

    def test_probabilities_valid(self, trained):
        predictions = trained.predict_masked([7, 0, 9], 1, top_k=10)
        probs = [p for _, p in predictions]
        assert probs == sorted(probs, reverse=True)
        assert all(0 < p <= 1 for p in probs)
        assert sum(p for _, p in predictions) <= 1.0 + 1e-9

    def test_no_special_tokens_proposed(self, trained):
        predictions = trained.predict_masked([7, 0, 9], 1, top_k=24)
        assert all(token >= 3 for token, _ in predictions)

    def test_long_sequence_window_clipped(self, trained):
        tokens = list(range(3, 23)) * 2  # longer than max_seq_len
        predictions = trained.predict_masked(tokens, 20, top_k=3)
        assert predictions

    def test_max_steps_stops_early(self):
        model = BertMaskedLM(
            tiny_config(), TrainingConfig(epochs=100, max_steps=3, seed=0)
        )
        model.fit(corridor_corpus(20), vocab_size=24)
        assert len(model.loss_history) == 3

    def test_deferred_config_built_at_fit(self):
        model = BertMaskedLM(training=TrainingConfig(epochs=1, max_steps=2))
        model.fit(corridor_corpus(10), vocab_size=24)
        assert model.model is not None
        assert model.model.config.vocab_size == 24

    def test_vocab_overflow_rejected(self):
        model = BertMaskedLM(tiny_config(vocab_size=10))
        with pytest.raises(ConfigError):
            model.fit(corridor_corpus(5), vocab_size=50)

    def test_empty_training_data(self):
        model = BertMaskedLM(tiny_config(), TrainingConfig(epochs=1))
        model.fit([], vocab_size=24)
        assert not model.is_fitted


def _single_forward_reference(model: BertMaskedLM, tokens, position, top_k):
    """The scalar ``predict_masked`` body as it was before batching: one
    ``(1, T)`` forward. Kept as the reference the batch is held equal to."""
    max_len = model.model.config.max_seq_len
    tokens = list(tokens)
    start = 0
    if len(tokens) > max_len:
        start = min(max(0, position - max_len // 2), len(tokens) - max_len)
        tokens = tokens[start : start + max_len]
    local = position - start
    tokens[local] = 1  # [MASK]
    with no_grad():
        logits = model.model(np.asarray([tokens], dtype=np.int64))
    row = logits.data[0, local]
    row = row - row.max()
    probs = np.exp(row)
    probs /= probs.sum()
    probs[:3] = 0.0
    order = np.argsort(-probs)[:top_k]
    return [(int(i), float(probs[i])) for i in order if probs[i] > 0.0]


def _assert_matches_tape(answers, references):
    """The tape forward's tokens in its order, probabilities within 1e-12.

    ``infer`` is not held to ``==`` here: the kernels are the same on both
    sides, but the masked row alone goes through ``gemv`` where the tape's
    all-rows forward goes through ``gemm``.
    """
    assert len(answers) == len(references)
    for got, ref in zip(answers, references):
        assert [token for token, _ in got] == [token for token, _ in ref]
        assert all(abs(p - q) <= 1e-12 for (_, p), (_, q) in zip(got, ref))


def _assert_contract(model, queries, top_k):
    """Batch ``==`` one-query calls; both match the tape forward."""
    batch = model.predict_masked_batch(queries, top_k=top_k)
    assert batch == [model.predict_masked(t, p, top_k=top_k) for t, p in queries]
    _assert_matches_tape(
        batch, [_single_forward_reference(model, t, p, top_k) for t, p in queries]
    )
    return batch


def _briefly_trained(vocab_size, config=None, seed=5):
    rng = np.random.default_rng(seed)
    corpus = [
        [int(t) for t in rng.integers(3, vocab_size, size=rng.integers(4, 30))]
        for _ in range(64)
    ]
    model = BertMaskedLM(config, TrainingConfig(epochs=1, max_steps=4, seed=2))
    return model.fit(corpus, vocab_size=vocab_size)


class TestBatchPrediction:
    """``predict_masked_batch`` returns the very floats of one-query calls,
    and the tape forward's answer to within rounding."""

    VOCAB = 300

    @pytest.fixture(scope="class")
    def model(self):
        # The default architecture (48 wide, 2 layers, 64 positions): BLAS
        # kernels are picked by shape, so equality is checked at the shapes
        # the system runs, with briefly trained (non-degenerate) weights.
        return _briefly_trained(self.VOCAB)

    def _queries(self, rng, lengths, vocab=VOCAB):
        return [
            ([int(t) for t in rng.integers(3, vocab, size=n)], int(rng.integers(0, n)))
            for n in lengths
        ]

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 10, 25])
    def test_same_length_rows_equal_single_forwards(self, model, rows):
        rng = np.random.default_rng(rows)
        for length in (3, 6, 11, 24):
            _assert_contract(model, self._queries(rng, [length] * rows), 10)

    def test_mixed_lengths_and_overlong_sequence(self, model):
        rng = np.random.default_rng(9)
        # 90 > max_seq_len 64: clipped to a window, which then shares a
        # forward with the genuine 64-token row.
        queries = self._queries(rng, [5, 9, 5, 90, 64, 3, 9, 5])
        queries[3] = (queries[3][0], 80)
        _assert_contract(model, queries, 7)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(share_layers=True),
            dict(num_layers=1),
            dict(num_heads=1),
            dict(num_heads=4),
            dict(num_layers=3, share_layers=True, num_heads=4),
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_infer_matches_tape_on_other_architectures(self, overrides):
        vocab = 60
        model = _briefly_trained(vocab, BertConfig(vocab_size=vocab, **overrides))
        rng = np.random.default_rng(4)
        for length in (3, 6, 11, 24):
            _assert_contract(model, self._queries(rng, [length] * 3, vocab), 10)

    def test_infer_matches_tape_at_the_ends_and_next_to_padding(self, model):
        rng = np.random.default_rng(6)
        (a, _), (b, _), (c, _), (d, _) = self._queries(rng, [9, 9, 9, 9])
        c[3] = c[7] = d[8] = 0  # [PAD] inside a row: its key is masked out
        batch = _assert_contract(model, [(a, 0), (b, 8), (c, 4), (d, 0)], 10)
        # The padding really took part: without it the answer differs.
        assert batch[2] != model.predict_masked([t or 5 for t in c], 4, top_k=10)

    def test_a_layer_over_all_rows_equals_the_tape_bit_for_bit(self, model):
        """Dropping the tape alone moves nothing: only asking the last layer
        for one row does."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 9, 48))
        bias = (rng.random((4, 9)) < 0.2)[:, None, None, :] * -1e9
        for layer in model.model.layers:
            with no_grad():
                taped = layer(Tensor(x), bias).data
            assert (layer.infer(x, x, bias) == taped).all()

    def test_one_forward_per_length_group(self, model, monkeypatch):
        shapes = []
        infer = model.model.infer
        monkeypatch.setattr(
            model.model, "infer",
            lambda ids, positions: shapes.append(np.shape(ids)) or infer(ids, positions),
        )
        rng = np.random.default_rng(3)
        model.predict_masked_batch(self._queries(rng, [6, 6, 8, 6, 8]), top_k=5)
        assert sorted(shapes) == [(2, 8), (3, 6)]

    def test_batch_builds_no_tape(self, model, monkeypatch):
        """A quiet return to ``no_grad(): model(ids)`` fails here, not in a
        benchmark: inference constructs no ``Tensor`` at all."""
        built = []
        init = Tensor.__init__
        monkeypatch.setattr(
            Tensor, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
        )
        rng = np.random.default_rng(8)
        answers = model.predict_masked_batch(self._queries(rng, [6, 6, 8, 70]), top_k=5)
        assert all(answers) and not built
        Tensor(np.zeros(2))
        assert built  # the counter does count

    def test_does_not_mutate_queries(self, model):
        tokens = [5, 6, 7, 8]
        model.predict_masked_batch([(tokens, 2)], top_k=3)
        assert tokens == [5, 6, 7, 8]

    def test_empty_batch(self, model):
        assert model.predict_masked_batch([], top_k=10) == []

    def test_invalid_query_rejected_before_any_forward(self, model):
        with pytest.raises(ValueError):
            model.predict_masked_batch([([5, 6, 7], 1), ([5, 6], 2)], top_k=3)

    def test_batch_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BertMaskedLM(tiny_config()).predict_masked_batch([([3, 4, 5], 1)])


class TestInferReadsLiveWeights:
    """``infer`` keeps no copy of a weight: whatever rebinds ``Parameter.data``
    (``load_state_dict``, a refit) is what the next answer comes from."""

    QUERIES = [([5, 9, 14, 20, 7], 2), ([11, 4, 8], 0), ([6, 7, 8, 9, 10, 12, 3], 6)]

    def test_load_state_dict_after_a_forward_is_seen(self):
        first = _briefly_trained(24, tiny_config(), seed=1)
        second = _briefly_trained(24, tiny_config(seed=3), seed=2)
        expected = second.predict_masked_batch(self.QUERIES, top_k=5)
        assert first.predict_masked_batch(self.QUERIES, top_k=5) != expected
        first.model.load_state_dict(second.model.state_dict())
        assert first.predict_masked_batch(self.QUERIES, top_k=5) == expected

    def test_second_fit_answers_from_the_new_weights(self):
        model = _briefly_trained(24, tiny_config(), seed=1)
        before = model.predict_masked_batch(self.QUERIES, top_k=5)
        corpus = corridor_corpus(40, seed=3)
        model.fit(corpus, vocab_size=24)
        fresh = BertMaskedLM(tiny_config(), model.training_config).fit(corpus, vocab_size=24)
        after = model.predict_masked_batch(self.QUERIES, top_k=5)
        assert after == fresh.predict_masked_batch(self.QUERIES, top_k=5)
        assert after != before

    def test_infer_rejects_overlong_rows_like_forward(self):
        model = BertModel(tiny_config(max_seq_len=4))
        ids = np.full((1, 5), 3)
        with pytest.raises(ConfigError, match="exceeds max_seq_len 4") as tape:
            model(ids)
        with pytest.raises(ConfigError, match="exceeds max_seq_len 4") as bare:
            model.infer(ids, [2])
        assert str(bare.value) == str(tape.value)
