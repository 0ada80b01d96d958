"""Tests for the extension features: lat/lon adapters, cell-size
auto-tuning, and the figure harness at micro scale."""

import pytest

from repro.core.tuning import tune_cell_size
from repro.core.config import KamelConfig
from repro.geo import (
    LocalProjection,
    projection_for,
    trajectory_from_latlon,
    trajectory_to_latlon,
)


class TestLatLonAdapter:
    RECORDS = [
        (41.150, -8.610, 0.0),
        (41.151, -8.611, 10.0),
        (41.152, -8.612, 20.0),
    ]

    def test_projection_for_centers_on_mean(self):
        proj = projection_for(self.RECORDS)
        assert proj.ref_lat == pytest.approx(41.151)
        assert proj.ref_lon == pytest.approx(-8.611)

    def test_round_trip(self):
        proj = projection_for(self.RECORDS)
        traj = trajectory_from_latlon("porto", self.RECORDS, proj)
        assert len(traj) == 3
        assert traj.is_time_ordered()
        back = trajectory_to_latlon(traj, proj)
        for (lat1, lon1, t1), (lat2, lon2, t2) in zip(self.RECORDS, back):
            assert lat1 == pytest.approx(lat2, abs=1e-9)
            assert lon1 == pytest.approx(lon2, abs=1e-9)
            assert t1 == t2

    def test_distances_in_meters(self):
        proj = projection_for(self.RECORDS)
        traj = trajectory_from_latlon("porto", self.RECORDS, proj)
        # ~1 millidegree of latitude is ~111 m; with longitude too, more.
        assert 100.0 < traj.points[0].distance_to(traj.points[1]) < 250.0

    def test_empty_records(self):
        from repro.errors import EmptyInputError

        with pytest.raises(EmptyInputError):
            projection_for([])


class TestCellSizeTuning:
    def test_returns_candidate(self, small_dataset):
        train, _ = small_dataset.split(seed=1)
        config = KamelConfig(cell_size_candidates=(50.0, 100.0))
        chosen = tune_cell_size(train[:30], config, sample_size=20, seed=0)
        assert chosen in (50.0, 100.0)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            tune_cell_size([], KamelConfig())

    def test_auto_tune_through_fit(self, small_dataset):
        from repro import Kamel

        train, _ = small_dataset.split(seed=1)
        config = KamelConfig(
            auto_tune_cell_size=True, cell_size_candidates=(60.0, 120.0)
        )
        system = Kamel(config).fit(train[:30])
        assert system.tokenizer.grid.edge_length_m in (60.0, 120.0)


class TestFigureHarnessMicro:
    """Smoke-run the figure functions at a micro scale."""

    @pytest.fixture(scope="class")
    def micro_scale(self):
        from repro.eval.figures import Scale

        return Scale(
            porto_trajectories=120,
            jakarta_trajectories=30,
            max_test=2,
            sparseness_m=(600.0,),
            deltas_m=(25.0, 75.0),
        )

    def test_fig9_structure(self, micro_scale):
        from repro.eval.figures import fig9_sparseness

        out = fig9_sparseness(micro_scale, methods=("KAMEL", "Linear"))
        assert set(out["datasets"]) == {"porto-like", "jakarta-like"}
        series = out["datasets"]["porto-like"]
        assert len(series["KAMEL"]["recall"]) == 1
        assert 0.0 <= series["KAMEL"]["recall"][0] <= 1.0

    def test_fig10_structure(self, micro_scale):
        from repro.eval.figures import fig10_threshold

        out = fig10_threshold(micro_scale, methods=("Linear",))
        series = out["datasets"]["porto-like"]["Linear"]
        assert len(series["recall"]) == 2
        assert series["recall"][1] >= series["recall"][0] - 1e-9

    def test_fig12_ablation_structure(self, micro_scale):
        from repro.eval.figures import fig12_ablation

        out = fig12_ablation(micro_scale)
        assert set(out["variants"]) == {"KAMEL", "No Part.", "No Const.", "No Multi."}

    def test_all_figures_registry(self):
        from repro.eval.figures import ALL_FIGURES

        assert len(ALL_FIGURES) == 9
        assert all(callable(fn) for fn in ALL_FIGURES.values())


class TestScaleAndWorkloadCaching:
    def test_scale_presets_ordered(self):
        from repro.eval.figures import Scale

        small, full = Scale.small(), Scale.full()
        assert small.porto_trajectories < full.porto_trajectories
        assert small.jakarta_trajectories < full.jakarta_trajectories
        assert small.max_test <= full.max_test

    def test_dataset_cache_returns_same_object(self):
        from repro.eval.figures import _dataset

        a = _dataset("porto", 60)
        b = _dataset("porto", 60)
        assert a is b
        c = _dataset("porto", 61)
        assert c is not a

    def test_dataset_cache_rejects_unknown(self):
        from repro.eval.figures import _dataset

        with pytest.raises(ValueError):
            _dataset("berlin", 10)

    def test_workloads_use_paper_deltas(self):
        from repro.eval.figures import Scale, jakarta_workload, porto_workload

        scale = Scale(porto_trajectories=60, jakarta_trajectories=10, max_test=2)
        assert porto_workload(scale).delta_m == 50.0
        assert jakarta_workload(scale).delta_m == 25.0
