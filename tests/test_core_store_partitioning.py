"""Tests for the trajectory store and the pyramid model repository."""

import pytest

from repro.core.config import KamelConfig
from repro.core.partitioning import ModelRepository, PyramidIndex, _pair_key
from repro.core.store import TrajectoryStore
from repro.core.tokenization import Tokenizer
from repro.errors import EmptyInputError, ModelRepositoryError
from repro.geo import BoundingBox, Point, Trajectory
from repro.grid import HexGrid
from repro.mlm import CountingMaskedLM


def line_trajectory(tid, x0, y, length=800.0, step=100.0):
    n = int(length / step) + 1
    return Trajectory(tid, [Point(x0 + i * step, y, t=float(i * 10)) for i in range(n)])


@pytest.fixture()
def tokenizer():
    return Tokenizer(HexGrid(75.0))


@pytest.fixture()
def store(tokenizer):
    return TrajectoryStore(tokenizer)


class TestStore:
    def test_empty(self, store):
        assert len(store) == 0
        assert store.total_tokens == 0
        with pytest.raises(EmptyInputError):
            store.bbox()

    def test_add_and_count(self, store, tokenizer):
        seq = tokenizer.tokenize(line_trajectory("a", 0, 0), grow=True)
        store.add(seq)
        assert len(store) == 1
        assert store.total_tokens == len(seq)

    def test_sequences_within(self, store, tokenizer):
        near = tokenizer.tokenize(line_trajectory("near", 0, 0), grow=True)
        far = tokenizer.tokenize(line_trajectory("far", 10_000, 10_000), grow=True)
        store.add_many([near, far])
        region = BoundingBox(-500, -500, 2000, 500)
        found = store.sequences_within(region)
        assert [s.traj_id for s in found] == ["near"]

    def test_iteration(self, store, tokenizer):
        store.add(tokenizer.tokenize(line_trajectory("a", 0, 0), grow=True))
        assert [s.traj_id for s in store] == ["a"]


class TestPyramidIndex:
    def test_validation(self):
        with pytest.raises(ModelRepositoryError):
            PyramidIndex(BoundingBox(0, 0, 100, 100), height=0)
        with pytest.raises(ModelRepositoryError):
            PyramidIndex(BoundingBox(0, 0, 0, 100), height=2)

    def test_cell_bbox_tiles_the_root(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        level2 = [pyramid.cell_bbox((2, i, j)) for i in range(4) for j in range(4)]
        assert sum(b.area for b in level2) == pytest.approx(400 * 400)

    def test_cell_containing_point(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        assert pyramid.cell_containing_point(Point(50, 50), 2) == (2, 0, 0)
        assert pyramid.cell_containing_point(Point(350, 150), 2) == (2, 3, 1)
        assert pyramid.cell_containing_point(Point(999, 0), 2) is None

    def test_cell_containing_bbox(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        inside = BoundingBox(10, 10, 90, 90)
        assert pyramid.cell_containing_bbox(inside, 2) == (2, 0, 0)
        straddling = BoundingBox(90, 10, 110, 90)
        assert pyramid.cell_containing_bbox(straddling, 2) is None
        assert pyramid.cell_containing_bbox(straddling, 1) == (1, 0, 0)

    def test_pair_containing_bbox(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        straddling = BoundingBox(90, 10, 110, 90)
        pair = pyramid.pair_containing_bbox(straddling, 2)
        assert pair is not None
        assert set(pair) == {(2, 0, 0), (2, 1, 0)}
        # Diagonal spans are not neighbour pairs.
        diagonal = BoundingBox(90, 90, 110, 110)
        assert pyramid.pair_containing_bbox(diagonal, 2) is None

    def test_parent_children_round_trip(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        cell = (1, 1, 0)
        for child in pyramid.children(cell):
            assert pyramid.parent(child) == cell
        assert pyramid.parent((0, 0, 0)) is None
        assert pyramid.children((2, 0, 0)) == []  # leaves

    def test_neighbors_stay_in_root(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        corner = pyramid.neighbors((2, 0, 0))
        assert len(corner) == 2
        interior = pyramid.neighbors((2, 1, 1))
        assert len(interior) == 4

    def test_pair_key_north_west_storage(self):
        # West cell (smaller i) stores; north cell (larger j) stores.
        assert _pair_key((2, 0, 0), (2, 1, 0))[0] == (2, 0, 0)
        assert _pair_key((2, 1, 0), (2, 0, 0))[0] == (2, 0, 0)
        assert _pair_key((2, 0, 1), (2, 0, 0))[0] == (2, 0, 1)

    def test_rooted_at_centers_leaf_on_anchor(self):
        pyramid = PyramidIndex.rooted_at(Point(1000, 2000), 9600.0, height=5)
        leaf = pyramid.cell_containing_point(Point(1000, 2000), 4)
        center = pyramid.cell_bbox(leaf).center
        assert center.distance_to(Point(1000, 2000)) < 1.0

    def test_smallest_enclosing_prefers_deepest(self):
        pyramid = PyramidIndex(BoundingBox(0, 0, 400, 400), height=3)
        box = BoundingBox(10, 10, 60, 60)
        assert pyramid.smallest_enclosing(box, iter([0, 1, 2])) == (2, 0, 0)


class TestModelRepository:
    def make_repo(self, tokenizer, k=10, height=4, levels=3):
        config = KamelConfig(
            model_threshold_k=k,
            pyramid_height=height,
            pyramid_levels=levels,
            pyramid_root_extent_m=16_000.0,
        )
        store = TrajectoryStore(tokenizer)
        return ModelRepository(tokenizer, store, config, CountingMaskedLM)

    def test_maintained_levels(self, tokenizer):
        repo = self.make_repo(tokenizer, height=4, levels=3)
        assert repo.maintained_levels == [1, 2, 3]

    def test_add_training_builds_models(self, tokenizer):
        repo = self.make_repo(tokenizer, k=5)
        trajs = [line_trajectory(f"t{i}", 0, i * 50.0) for i in range(10)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        assert repo.num_models >= 1
        stats = repo.stats()
        assert stats.single_models >= 1

    def test_retrieval_finds_model(self, tokenizer):
        repo = self.make_repo(tokenizer, k=5)
        trajs = [line_trajectory(f"t{i}", 0, i * 50.0) for i in range(10)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        stored = repo.retrieve(BoundingBox(0, 0, 600, 300))
        assert stored is not None
        assert stored.model.is_fitted

    def test_retrieval_prefers_smallest_cell(self, tokenizer):
        repo = self.make_repo(tokenizer, k=2)
        trajs = [line_trajectory(f"t{i}", 0, i * 50.0) for i in range(10)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        small = repo.retrieve(BoundingBox(0, 0, 200, 100))
        assert small is not None
        # The smallest enclosing model's region must be no larger than the
        # root: and if multiple levels have models, a deeper one is chosen.
        deepest_level = max(level for (level, _, _) in repo._single)
        assert small.region.area <= repo.pyramid.cell_bbox((deepest_level, 0, 0)).area * 4

    def test_retrieve_miss_far_away(self, tokenizer):
        repo = self.make_repo(tokenizer, k=5)
        trajs = [line_trajectory(f"t{i}", 0, i * 50.0) for i in range(6)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        assert repo.retrieve(BoundingBox(6000, 6000, 6500, 6500)) is None

    def test_retrieve_before_training(self, tokenizer):
        repo = self.make_repo(tokenizer)
        assert repo.retrieve(BoundingBox(0, 0, 10, 10)) is None

    def test_threshold_blocks_small_batches(self, tokenizer):
        repo = self.make_repo(tokenizer, k=10_000)
        trajs = [line_trajectory("t", 0, 0)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        assert repo.num_models == 0

    def test_rebuild_counts(self, tokenizer):
        repo = self.make_repo(tokenizer, k=5)
        batch1 = [tokenizer.tokenize(line_trajectory(f"a{i}", 0, i * 50.0), grow=True) for i in range(8)]
        batch2 = [tokenizer.tokenize(line_trajectory(f"b{i}", 0, i * 50.0 + 25), grow=True) for i in range(8)]
        repo.add_training(batch1)
        assert repo.stats().rebuilds == 0
        before = {**repo._single, **repo._neighbor}
        repo.add_training(batch2)
        after = {**repo._single, **repo._neighbor}
        # A slot the second pass touched holds a new StoredModel.
        touched = [key for key, stored in before.items() if after[key] is not stored]
        assert touched
        assert repo.stats().rebuilds == len(touched)
        for key, stored in after.items():
            assert stored.builds == (2 if key in touched else 1), key

    def test_one_fit_rebuilds_nothing(self, multileaf_kamel):
        """Every pair is reached from both of its cells; one pass builds it once."""
        stats = multileaf_kamel.repository.stats()
        assert stats.single_models + stats.neighbor_models == 38
        assert stats.rebuilds == 0

    def test_empty_batch_ignored(self, tokenizer):
        repo = self.make_repo(tokenizer)
        repo.add_training([])
        assert repo.num_models == 0

    def test_model_threshold_formula(self):
        config = KamelConfig(model_threshold_k=100, pyramid_height=4, pyramid_levels=3)
        # Leaf level is 3: threshold k * 4^(leaf - level).
        assert config.model_threshold(3) == 100
        assert config.model_threshold(2) == 400
        assert config.model_threshold(1) == 1600


class TestNeighborModelRetrieval:
    def test_straddling_bbox_served_by_neighbor_model(self, tokenizer):
        """Section 4.1's boundary case: a trajectory crossing two adjacent
        leaf cells that do not share a parent model is served by the
        neighbor-cell model stored at the west/north cell."""
        config = KamelConfig(
            model_threshold_k=5,
            pyramid_height=3,
            pyramid_levels=2,
            pyramid_root_extent_m=8000.0,
        )
        store = TrajectoryStore(tokenizer)
        repo = ModelRepository(tokenizer, store, config, CountingMaskedLM)
        # Long east-west trajectories crossing the pyramid's middle.
        trajs = [
            line_trajectory(f"x{k}", -1500.0, k * 60.0, length=3000.0)
            for k in range(8)
        ]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        if not repo._neighbor:
            pytest.skip("threshold/layout did not produce a neighbor model here")
        pair = next(iter(repo._neighbor))
        region_a = repo.pyramid.cell_bbox(pair[0])
        region_b = repo.pyramid.cell_bbox(pair[1])
        # A query box straddling the shared border of the pair.
        union = region_a.union(region_b)
        c = union.center
        straddle = BoundingBox(c.x - 50, c.y - 50, c.x + 50, c.y + 50)
        stored = repo.retrieve(straddle)
        assert stored is not None

    def test_neighbor_model_requires_double_threshold(self, tokenizer):
        config = KamelConfig(
            model_threshold_k=10_000,
            pyramid_height=3,
            pyramid_levels=2,
            pyramid_root_extent_m=8000.0,
        )
        store = TrajectoryStore(tokenizer)
        repo = ModelRepository(tokenizer, store, config, CountingMaskedLM)
        trajs = [line_trajectory(f"x{k}", -900.0, k * 60.0, length=1800.0) for k in range(4)]
        repo.add_training([tokenizer.tokenize(t, grow=True) for t in trajs])
        assert not repo._neighbor
