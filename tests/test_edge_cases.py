"""Edge-case coverage across modules: paths the main suites don't hit."""

import numpy as np
import pytest

from repro import Kamel, KamelConfig
from repro.baselines import HmmMapMatcher
from repro.core.partitioning import ModelRepository
from repro.core.store import TrajectoryStore
from repro.core.tokenization import Tokenizer
from repro.geo import BoundingBox, Point, Trajectory
from repro.grid import HexGrid
from repro.mlm import CountingMaskedLM
from repro.nn import Tensor
from repro.roadnet.network import EdgeRef, RoadNetwork


class TestTensorMisc:
    def test_item_and_numpy(self):
        t = Tensor(np.array([2.5]))
        assert t.item() == 2.5
        assert t.numpy() is t.data

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor(np.zeros(2)))

    def test_ndim(self):
        assert Tensor(np.zeros((2, 3, 4))).ndim == 3

    def test_rsub(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = 5.0 - t
        assert out.data[0] == 4.0

    def test_softmax_other_axis(self):
        t = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = t.softmax(axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), np.ones(4))


class TestStoreEdges:
    def test_all_special_sequence_kept_but_unplaceable(self):
        tokenizer = Tokenizer(HexGrid(75.0))
        store = TrajectoryStore(tokenizer)
        from repro.core.tokenization import TokenSequence

        store.add(TokenSequence("unk", (2, 2), (0.0, 1.0)))  # all [UNK]
        assert len(store) == 1
        assert store.sequences_within(BoundingBox(-1e6, -1e6, 1e6, 1e6)) == []

    def test_store_bbox_union(self):
        tokenizer = Tokenizer(HexGrid(75.0))
        store = TrajectoryStore(tokenizer)
        t1 = Trajectory("a", [Point(0, 0, t=0.0), Point(200, 0, t=10.0)])
        t2 = Trajectory("b", [Point(5000, 5000, t=0.0), Point(5200, 5000, t=10.0)])
        store.add_many([tokenizer.tokenize(t, grow=True) for t in (t1, t2)])
        box = store.bbox()
        assert box.contains_point(Point(100, 0))
        assert box.contains_point(Point(5100, 5000))


class TestPartitioningEdges:
    def test_batch_spanning_beyond_maintained_cells(self):
        """A training batch wider than any maintained cell falls into the
        'refresh every overlapped cell' path and still builds models."""
        tokenizer = Tokenizer(HexGrid(75.0))
        config = KamelConfig(
            model_threshold_k=5,
            pyramid_height=3,
            pyramid_levels=2,
            pyramid_root_extent_m=4000.0,
        )
        store = TrajectoryStore(tokenizer)
        repo = ModelRepository(tokenizer, store, config, CountingMaskedLM)
        # One giant trajectory spanning most of the root: no maintained
        # cell encloses it.
        giant = Trajectory(
            "giant", [Point(-1500 + i * 100.0, 0.0, t=float(i)) for i in range(31)]
        )
        locals_ = [
            Trajectory(f"l{k}", [Point(i * 60.0, k * 40.0, t=float(i)) for i in range(10)])
            for k in range(6)
        ]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in locals_ + [giant]])
        assert repo.num_models >= 1


class TestMapMatchEdges:
    @pytest.fixture()
    def straight_net(self):
        net = RoadNetwork()
        net.add_node("a", Point(0, 0))
        net.add_node("b", Point(1000, 0))
        net.add_edge("a", "b")
        return net

    def test_route_same_edge_forward_and_backward(self, straight_net):
        matcher = HmmMapMatcher(straight_net)
        start = straight_net.project(Point(100, 5))
        end = straight_net.project(Point(700, -5))
        assert start is not None and end is not None
        dist, geom = matcher._route(start, end, cutoff=5000.0)
        assert dist == pytest.approx(600.0, abs=1.0)
        xs = [p.x for p in geom]
        assert xs == sorted(xs)
        # And the reverse direction flips the geometry.
        dist_back, geom_back = matcher._route(end, start, cutoff=5000.0)
        assert dist_back == pytest.approx(600.0, abs=1.0)
        xs_back = [p.x for p in geom_back]
        assert xs_back == sorted(xs_back, reverse=True)

    def test_route_cutoff_exceeded(self, straight_net):
        matcher = HmmMapMatcher(straight_net)
        start = straight_net.project(Point(0, 0))
        end = straight_net.project(Point(1000, 0))
        assert matcher._route(start, end, cutoff=10.0) is None

    def test_viterbi_handles_candidate_gaps(self, straight_net):
        """Points far off the network produce empty candidate sets; the
        Viterbi runs must skip over them without crashing."""
        matcher = HmmMapMatcher(straight_net)
        traj = Trajectory(
            "mixed",
            [
                Point(100, 5, t=0.0),
                Point(90_000, 90_000, t=10.0),  # unmatched
                Point(500, -5, t=20.0),
            ],
        )
        matched = matcher.match(traj)
        assert matched[0] is not None
        assert matched[1] is None
        assert matched[2] is not None


class TestKamelModelSelection:
    def test_per_segment_retrieval_when_trajectory_spans_models(self, small_split):
        """A trajectory whose bbox exceeds every pyramid cell still gets
        per-segment models (the paper's 'split into sub-trajectories')."""
        train, test = small_split
        system = Kamel(KamelConfig(model_threshold_k=100)).fit(train)
        # Build a synthetic overlong trajectory by chaining two test ones.
        a, b = test[0], test[1]
        chained = Trajectory("chained", list(a.points) + list(b.points))
        result = system.impute(chained.sparsify(500.0))
        assert result.num_segments >= 1
        # At least some segments succeed even though the whole-trajectory
        # model may be missing.
        assert result.num_failed < result.num_segments or result.num_segments == 1


class TestCountingEdges:
    def test_mask_at_right_edge(self):
        model = CountingMaskedLM().fit([[3, 4, 5, 6]] * 5, 10)
        predictions = model.predict_masked([4, 5, 0], 2, top_k=3)
        assert predictions[0][0] == 6

    def test_single_token_sequence_training(self):
        model = CountingMaskedLM().fit([[7]], 10)
        assert model.num_training_tokens == 1

    def test_top_k_zero_edge(self):
        model = CountingMaskedLM().fit([[3, 4, 5]] * 3, 10)
        assert model.predict_masked([3, 0, 5], 1, top_k=0) == []


class TestStoreAfterLoadImputes:
    def test_loaded_system_supports_add_training(self, trained_kamel, small_split, tmp_path):
        """The persisted trajectory store must support further enrichment."""
        from repro.io import load_kamel

        train, _ = small_split
        trained_kamel.save(tmp_path / "m")
        restored = load_kamel(tmp_path / "m")
        before = len(restored.store)
        restored.add_training(train[:3])
        assert len(restored.store) == before + 3
