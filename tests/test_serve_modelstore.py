"""ModelStore, the per-worker model LRU, and lazy system restoration.

The serving tier's memory contract is under test: a restored worker
holds O(LRU capacity) parsed models, not the whole pyramid, and lazy
loading changes *when* models are parsed but never *what* the system
imputes — lazy and eager restorations must agree bit-for-bit.

The two-process test is the regression guard for satellite concurrency:
``ModelStore.load`` opens a fresh handle per call, so multiple worker
processes materializing the same models simultaneously must both succeed
and agree with the parent.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.errors import KamelError
from repro.io.serialize import ModelStore, load_kamel, save_kamel
from repro.resilience.journal import trajectory_to_payload
from repro.serve.modelstore import LazyModel, ModelLRU, load_kamel_lazy


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def sparse_feed(small_split):
    _, test = small_split
    return [t.sparsify(800.0) for t in test[:6]]


class TestModelStore:
    def test_manifest_view(self, saved_dir):
        store = ModelStore(saved_dir)
        assert len(store) > 0
        names = store.file_names()
        assert names == sorted(names)
        for name in names:
            assert name in store
            entry = store.entry(name)
            assert entry["group"] in ("single", "neighbor", "global")
            assert entry["file"] == name

    def test_unknown_file_rejected(self, saved_dir):
        store = ModelStore(saved_dir)
        with pytest.raises(KamelError, match="not in manifest"):
            store.entry("nope.json")
        with pytest.raises(KamelError, match="not in manifest"):
            store.load("nope.json")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(KamelError, match="manifest"):
            ModelStore(tmp_path)

    def test_a_shared_file_keeps_its_first_slot(self, multileaf_saved):
        manifest = json.loads((multileaf_saved / "manifest.json").read_text())
        first: dict[str, tuple[str, str]] = {}
        for group in ("single", "neighbor"):
            for key, entry in manifest[group].items():
                first.setdefault(entry["file"], (group, key))
        store = ModelStore(multileaf_saved)
        assert len(store) == len(first) < len(manifest["single"]) + len(manifest["neighbor"])
        for name, (group, key) in first.items():
            entry = store.entry(name)
            assert (entry["group"], entry["key"]) == (group, key)

    def test_load_returns_fresh_fitted_models(self, saved_dir):
        store = ModelStore(saved_dir)
        name = store.file_names()[0]
        first = store.load(name)
        second = store.load(name)
        assert first is not second  # fresh handle and object per call
        assert first.is_fitted

    def test_two_processes_load_concurrently(self, saved_dir, sparse_feed):
        # Two subprocesses restore the same directory at the same time
        # and impute the same feed; both must agree with this process
        # exactly. Regression guard for shared-handle corruption.
        script = (
            "import json, sys\n"
            "from repro.io.serialize import load_kamel\n"
            "from repro.resilience.journal import (\n"
            "    trajectory_from_payload, trajectory_to_payload)\n"
            "system = load_kamel(sys.argv[1])\n"
            "feed = [trajectory_from_payload(p) for p in json.load(open(sys.argv[2]))]\n"
            "out = [trajectory_to_payload(system.impute(t).trajectory) for t in feed]\n"
            "print(json.dumps(out))\n"
        )
        feed_file = saved_dir / "feed.json"
        feed_file.write_text(
            json.dumps([trajectory_to_payload(t) for t in sparse_feed])
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH", "")])
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(saved_dir), str(feed_file)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            outputs.append(json.loads(stdout))
        local_system = load_kamel(saved_dir)
        expected = [
            trajectory_to_payload(local_system.impute(t).trajectory)
            for t in sparse_feed
        ]
        assert outputs[0] == expected
        assert outputs[1] == expected


class TestModelLRU:
    # The eviction tests need three model files: the small system's slots
    # all share one fitted model, so they read the multi-leaf system.
    def test_bounded_with_eviction_accounting(self, multileaf_saved):
        store = ModelStore(multileaf_saved)
        names = store.file_names()
        assert len(names) >= 3, "fixture system too small to exercise the LRU"
        lru = ModelLRU(store, capacity=2)
        for name in names[:3]:
            lru.get(name)
        assert len(lru) == 2
        assert lru.misses == 3
        assert lru.evictions == 1
        assert lru.resident() == [names[1], names[2]]

    def test_hit_refreshes_recency(self, multileaf_saved):
        store = ModelStore(multileaf_saved)
        names = store.file_names()
        lru = ModelLRU(store, capacity=2)
        lru.get(names[0])
        lru.get(names[1])
        lru.get(names[0])  # refresh: names[1] is now the eviction victim
        assert lru.hits == 1
        lru.get(names[2])
        assert names[0] in lru.resident()
        assert names[1] not in lru.resident()

    def test_same_object_on_hit(self, saved_dir):
        lru = ModelLRU(ModelStore(saved_dir), capacity=2)
        name = lru.store.file_names()[0]
        assert lru.get(name) is lru.get(name)

    def test_capacity_validated(self, saved_dir):
        with pytest.raises(ValueError, match="capacity"):
            ModelLRU(ModelStore(saved_dir), capacity=0)


class TestLazyRestore:
    def test_repository_holds_proxies(self, saved_dir):
        system, cache = load_kamel_lazy(saved_dir, lru_capacity=4)
        assert len(cache) == 0  # nothing parsed until first predict
        stored = next(iter(system.repository._single.values()))
        assert isinstance(stored.model, LazyModel)
        assert stored.model.is_fitted

    def test_lazy_fit_is_refused(self, saved_dir):
        system, _ = load_kamel_lazy(saved_dir, lru_capacity=4)
        stored = next(iter(system.repository._single.values()))
        with pytest.raises(NotImplementedError):
            stored.model.fit([], 0)

    def test_lazy_matches_eager_bit_for_bit(self, saved_dir, sparse_feed):
        eager = load_kamel(saved_dir)
        lazy, cache = load_kamel_lazy(saved_dir, lru_capacity=4)
        for trajectory in sparse_feed:
            expected = trajectory_to_payload(eager.impute(trajectory).trajectory)
            actual = trajectory_to_payload(lazy.impute(trajectory).trajectory)
            assert actual == expected
        # The bound held while the models actually used were cached.
        assert len(cache) <= 4
        assert cache.misses >= 1
