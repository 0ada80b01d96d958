"""Tests for saving/loading a trained KAMEL system."""

import json

import numpy as np
import pytest

from repro import Kamel, KamelConfig
from repro.errors import KamelError, NotFittedError
from repro.io import load_kamel, save_kamel


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def saved(self, trained_kamel, tmp_path_factory):
        directory = tmp_path_factory.mktemp("kamel_model")
        save_kamel(trained_kamel, directory)
        return directory

    def test_layout(self, saved):
        for name in ("config.json", "system.json", "store.json", "detokenizer.json", "manifest.json"):
            assert (saved / name).exists(), name
        assert any((saved / "models").iterdir())

    def test_config_restored(self, saved, trained_kamel):
        restored = load_kamel(saved)
        assert restored.config == trained_kamel.config
        assert restored.is_fitted

    def test_vocabulary_restored(self, saved, trained_kamel):
        restored = load_kamel(saved)
        assert len(restored.tokenizer.vocabulary) == len(trained_kamel.tokenizer.vocabulary)

    def test_repository_restored(self, saved, trained_kamel):
        restored = load_kamel(saved)
        assert restored.repository.num_models == trained_kamel.repository.num_models
        assert restored.repository.maintained_levels == trained_kamel.repository.maintained_levels

    def test_store_restored(self, saved, trained_kamel):
        restored = load_kamel(saved)
        assert len(restored.store) == len(trained_kamel.store)
        assert restored.store.total_tokens == trained_kamel.store.total_tokens

    def test_imputation_identical_after_round_trip(self, saved, trained_kamel, small_split):
        _, test = small_split
        sparse = test[0].sparsify(500.0)
        restored = load_kamel(saved)
        original = trained_kamel.impute(sparse)
        recovered = restored.impute(sparse)
        assert len(original.trajectory) == len(recovered.trajectory)
        for a, b in zip(original.trajectory.points, recovered.trajectory.points):
            assert a.x == pytest.approx(b.x)
            assert a.y == pytest.approx(b.y)
        assert original.num_failed == recovered.num_failed

    def test_token_geometry_restored(self, saved, trained_kamel, small_split):
        """The restored tokenizer is built around the restored vocabulary, so
        no centroid can have been looked up under another one."""
        from repro.serve.modelstore import load_kamel_lazy

        original = trained_kamel.tokenizer
        feed = [t.sparsify(500.0) for t in small_split[1][:8]]
        expected = [trained_kamel.impute(t) for t in feed]
        for restored in (load_kamel(saved), load_kamel_lazy(saved)[0]):
            tokenizer = restored.tokenizer
            assert tokenizer.vocabulary.to_list() == original.vocabulary.to_list()
            assert restored.constraints.tokenizer is tokenizer
            for t in tokenizer.vocabulary.real_token_ids():
                fresh = tokenizer.grid.centroid(tokenizer.cell_of_token(t))
                assert tokenizer.centroid_of_token(t) == fresh
                assert original.centroid_of_token(t) == fresh
            assert [restored.impute(t) for t in feed] == expected  # bit for bit

    def test_save_via_method(self, trained_kamel, tmp_path):
        trained_kamel.save(tmp_path / "via_method")
        restored = Kamel.load(tmp_path / "via_method")
        assert restored.is_fitted


class TestDirectoryFromBeforeDriftWasRetired:
    def test_drift_json_is_ignored_and_no_longer_written(
        self, trained_kamel, small_split, tmp_path
    ):
        """Older saves carry a ``drift.json`` (a training-distribution
        sketch) beside the files below; it loads and imputes as a fresh one."""
        from repro.serve.modelstore import load_kamel_lazy

        fresh, older = tmp_path / "fresh", tmp_path / "older"
        for directory in (fresh, older):
            save_kamel(trained_kamel, directory)
        assert not (fresh / "drift.json").exists()
        (older / "drift.json").write_text(
            json.dumps(
                {
                    "cells": {"0_0": 31, "1_-2": 4},
                    "features": {"segment_length": [0, 3, 9], "speed": [1, 2]},
                    "trajectories": 64,
                }
            )
        )
        feed = [t.sparsify(500.0) for t in small_split[1][:8]]
        expected = [load_kamel(fresh).impute(t) for t in feed]
        assert expected == [trained_kamel.impute(t) for t in feed]
        for restored in (load_kamel(older), load_kamel_lazy(older)[0]):
            assert [restored.impute(t) for t in feed] == expected  # bit for bit


class TestErrors:
    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_kamel(Kamel(), tmp_path)

    def test_version_mismatch_rejected(self, trained_kamel, tmp_path):
        save_kamel(trained_kamel, tmp_path)
        payload = json.loads((tmp_path / "config.json").read_text())
        payload["version"] = 999
        (tmp_path / "config.json").write_text(json.dumps(payload))
        with pytest.raises(KamelError):
            load_kamel(tmp_path)


class TestBertPersistence:
    @pytest.fixture(scope="class")
    def round_trip(self, small_split, tmp_path_factory):
        train, _ = small_split
        config = KamelConfig(
            model_backend="bert",
            bert_epochs=8,
            use_partitioning=False,
            max_model_calls=200,
        )
        system = Kamel(config).fit(train[:20])
        directory = tmp_path_factory.mktemp("kamel_bert")
        save_kamel(system, directory)
        return system, load_kamel(directory)

    def test_bert_backend_round_trip(self, round_trip, small_split):
        system, restored = round_trip
        assert restored._global_model is not None
        sparse = small_split[1][0].sparsify(500.0)
        original = system.impute(sparse)
        recovered = restored.impute(sparse)
        assert len(original.trajectory) == len(recovered.trajectory)

    def test_loaded_bert_answers_with_the_saved_weights(self, round_trip):
        """``load_kamel`` builds a randomly initialised ``BertModel`` and
        only then ``load_state_dict``s into it: an inference path that kept
        its own copy of the weights would answer from the random ones."""
        system, restored = round_trip
        vocab = len(system.tokenizer.vocabulary)
        rng = np.random.default_rng(0)
        queries = [
            ([int(t) for t in rng.integers(3, vocab, size=n)], int(rng.integers(0, n)))
            for n in (4, 4, 7, 4, 12, 7)
        ]
        expected = system._global_model.predict_masked_batch(queries, top_k=10)
        assert all(expected)
        assert restored._global_model.predict_masked_batch(queries, top_k=10) == expected
