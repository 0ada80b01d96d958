"""Tests for saving/loading a trained KAMEL system."""

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro import Kamel, KamelConfig
from repro.errors import KamelError, NotFittedError
from repro.io import load_kamel, save_kamel, serialize


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

    def test_imputing_adds_nothing_to_the_saved_models(self, saved, small_split, tmp_path):
        """Counting models memoise their answers; the memo is never saved."""
        system = load_kamel(saved)  # every model starts with an empty memo
        save_kamel(system, tmp_path / "before")
        for t in small_split[1][:8]:
            system.impute(t.sparsify(500.0))
        assert any(m.model._answers for m in system.repository._single.values())
        save_kamel(system, tmp_path / "after")
        before = sorted((tmp_path / "before" / "models").iterdir())
        after = sorted((tmp_path / "after" / "models").iterdir())
        assert [p.name for p in before] == [p.name for p in after]
        for old, new in zip(before, after):
            assert old.read_bytes() == new.read_bytes(), old.name


class TestDerivedStateRestored:
    """What a saved system does not store is rebuilt the way training
    builds it: the same constraints class and speed bound, and a counting
    rung model equal to the fitted one."""

    @pytest.mark.parametrize("use_constraints", [True, False])
    def test_constraints_and_counting_rung(self, small_split, tmp_path, use_constraints):
        train, _ = small_split
        system = Kamel(KamelConfig(use_constraints=use_constraints)).fit(train[:20])
        save_kamel(system, tmp_path)
        restored = load_kamel(tmp_path)
        assert type(restored.constraints) is type(system.constraints)
        assert restored.max_speed_mps == system.max_speed_mps
        assert restored.constraints.max_speed_mps == system.constraints.max_speed_mps
        assert restored._fallback_model.to_dict() == system._fallback_model.to_dict()


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


def _slots(system):
    repository = system.repository
    return {**repository._single, **repository._neighbor}


def _key_name(key):
    """A slot key as the manifest names it."""
    if len(key) == 2:
        return "__".join(serialize._cell_key_name(cell) for cell in key)
    return serialize._cell_key_name(key)


def _counting_parses(monkeypatch):
    """Count every model file :func:`load_kamel` parses from here on."""
    parsed = []
    real = serialize._load_model
    monkeypatch.setattr(
        serialize, "_load_model", lambda path: parsed.append(path.name) or real(path)
    )
    return parsed


def _sharing(system):
    """Which slots hold one model object: a partition of the slot keys."""
    groups: dict[int, list] = {}
    for key, stored in _slots(system).items():
        groups.setdefault(id(stored.model), []).append(key)
    return {frozenset(keys) for keys in groups.values()}


class TestSharedModelFiles:
    """Slots sharing a fitted model share one saved file and, after any
    restore, one object; directories giving every slot its own file (the
    layout before models were shared) still load."""

    @pytest.fixture(scope="class")
    def feed(self, porto_small):
        return [t.sparsify(800.0) for t in porto_small.split(seed=1)[1][:12]]

    @pytest.fixture(scope="class")
    def expected(self, multileaf_kamel, feed):
        return [multileaf_kamel.impute(t) for t in feed]

    def test_one_file_per_distinct_model(self, multileaf_kamel, multileaf_saved):
        manifest = json.loads((multileaf_saved / "manifest.json").read_text())
        named = [e["file"] for group in ("single", "neighbor") for e in manifest[group].values()]
        on_disk = sorted(p.name for p in (multileaf_saved / "models").iterdir())
        assert len(named) == multileaf_kamel.repository.num_models == 38
        assert on_disk == sorted(set(named))
        assert len(on_disk) == multileaf_kamel.repository.stats().distinct_models == 30

    def test_restores_share_as_the_fitted_system_does(
        self, multileaf_kamel, multileaf_saved, monkeypatch
    ):
        from repro.serve.modelstore import LazyModel, load_kamel_lazy

        manifest = json.loads((multileaf_saved / "manifest.json").read_text())
        files = {**manifest["single"], **manifest["neighbor"]}
        parsed = _counting_parses(monkeypatch)
        eager = load_kamel(multileaf_saved)
        assert sorted(parsed) == sorted({e["file"] for e in files.values()})  # each once
        lazy, cache = load_kamel_lazy(multileaf_saved)
        for restored in (eager, lazy):
            assert _sharing(restored) == _sharing(multileaf_kamel)
            assert restored.repository.stats().distinct_models == 30
        for key, stored in _slots(lazy).items():
            assert isinstance(stored.model, LazyModel)
            assert stored.model.file_name == files[_key_name(key)]["file"]
        assert len(cache) == 0

    def test_in_memory_eager_and_lazy_agree_bit_for_bit(
        self, multileaf_saved, feed, expected
    ):
        from repro.serve.modelstore import load_kamel_lazy

        assert sum(r.num_failed < r.num_segments for r in expected) > 0
        for restored in (load_kamel(multileaf_saved), load_kamel_lazy(multileaf_saved)[0]):
            assert [restored.impute(t) for t in feed] == expected

    def test_a_directory_with_one_file_per_slot_still_loads(
        self, multileaf_saved, feed, expected, tmp_path, monkeypatch
    ):
        """The layout before sharing: every slot names a file of its own."""
        from repro.serve.modelstore import load_kamel_lazy

        older = tmp_path / "older"
        shutil.copytree(multileaf_saved, older)
        manifest = json.loads((older / "manifest.json").read_text())
        for group in ("single", "neighbor"):
            for key_name, entry in manifest[group].items():
                own = f"{group}_{key_name}{pathlib.Path(entry['file']).suffix}"
                if own != entry["file"]:
                    shutil.copyfile(older / "models" / entry["file"], older / "models" / own)
                    entry["file"] = own
        (older / "manifest.json").write_text(json.dumps(manifest))
        assert len(list((older / "models").iterdir())) == 38
        version = json.loads((older / "config.json").read_text())["version"]
        assert version == serialize._FORMAT_VERSION

        parsed = _counting_parses(monkeypatch)
        eager = load_kamel(older)
        assert len(parsed) == len(set(parsed)) == 38  # one parse per slot
        assert eager.repository.stats().distinct_models == 38
        for restored in (eager, load_kamel_lazy(older)[0]):
            assert [restored.impute(t) for t in feed] == expected


class TestErrors:
    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_kamel(Kamel(), tmp_path)

    def test_version_mismatch_rejected(self, trained_kamel, tmp_path):
        save_kamel(trained_kamel, tmp_path)
        payload = json.loads((tmp_path / "config.json").read_text())
        # 999: a format from the future; 1 to 4: formats whose config.json,
        # BERT headers or counting payloads still carry settings retired since.
        for version in (999, 1, 2, 3, 4):
            payload["version"] = version
            (tmp_path / "config.json").write_text(json.dumps(payload))
            with pytest.raises(KamelError, match=f"version {version}"):
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
