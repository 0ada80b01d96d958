"""Tests for the GPS trajectory simulator and dataset factories."""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigError, EmptyInputError
from repro.roadnet import (
    SimulatorConfig,
    TrajectorySimulator,
    make_jakarta_like,
    make_porto_like,
)


@pytest.fixture(scope="module")
def simulator(small_city):
    return TrajectorySimulator(
        small_city,
        SimulatorConfig(sample_interval_s=2.0, min_trip_length_m=500.0, seed=5),
    )


class TestConfigValidation:
    def test_interval_positive(self):
        with pytest.raises(ConfigError):
            SimulatorConfig(sample_interval_s=0.0)

    def test_empty_network_rejected(self):
        from repro.roadnet.network import RoadNetwork

        with pytest.raises(EmptyInputError):
            TrajectorySimulator(RoadNetwork())


class TestSimulation:
    def test_trajectory_is_time_ordered(self, simulator):
        traj = simulator.simulate_one("t0")
        assert traj.is_time_ordered()

    def test_sampling_interval(self, simulator):
        traj = simulator.simulate_one("t1")
        deltas = {round(b.t - a.t, 6) for a, b in traj.segments()}
        assert deltas == {2.0}

    def test_trip_length_respects_minimum(self, simulator):
        for k in range(5):
            traj = simulator.simulate_one(f"len-{k}")
            # Polyline length may shrink slightly through noise, allow slack.
            assert traj.length >= 500.0 * 0.7

    def test_points_stay_near_network(self, simulator, small_city):
        """Samples deviate from the road only by GPS noise (5 m sigma)."""
        traj = simulator.simulate_one("t2")
        for p in traj.points[:: max(1, len(traj) // 10)]:
            projected = small_city.project(p, radius=100.0)
            assert projected is not None
            assert projected.distance_m <= 30.0  # 6 sigma

    def test_speeds_plausible(self, simulator):
        traj = simulator.simulate_one("t3")
        speeds = [
            a.distance_to(b) / (b.t - a.t) for a, b in traj.segments()
        ]
        assert 0.0 <= float(np.median(speeds)) <= 40.0

    def test_simulate_batch(self, simulator):
        trajs = simulator.simulate(5, id_prefix="batch")
        assert [t.traj_id for t in trajs] == [f"batch-{k}" for k in range(5)]

    def test_simulate_zero(self, simulator):
        assert simulator.simulate(0) == []

    def test_simulate_negative_raises(self, simulator):
        with pytest.raises(ValueError):
            simulator.simulate(-1)

    def test_stream_is_lazy_and_endless(self, simulator):
        first_three = list(itertools.islice(simulator.stream("s"), 3))
        assert len(first_three) == 3

    def test_unreachable_trip_bounds(self, small_city):
        sim = TrajectorySimulator(
            small_city,
            SimulatorConfig(min_trip_length_m=1e7, seed=1),
        )
        with pytest.raises(EmptyInputError):
            sim.simulate_one("impossible")

    def test_determinism(self, small_city):
        a = TrajectorySimulator(small_city, SimulatorConfig(seed=9, min_trip_length_m=500)).simulate(3)
        b = TrajectorySimulator(small_city, SimulatorConfig(seed=9, min_trip_length_m=500)).simulate(3)
        for ta, tb in zip(a, b):
            assert ta.points == tb.points


class TestDatasetFactories:
    def test_porto_vs_jakarta_contrast(self):
        """The property the paper's Fig. 9 discussion hinges on: Jakarta
        trajectories are far longer (in points) than Porto's."""
        porto = make_porto_like(n_trajectories=20)
        jakarta = make_jakarta_like(n_trajectories=5)
        assert jakarta.mean_points_per_trajectory > 5 * porto.mean_points_per_trajectory

    def test_split_fractions(self):
        ds = make_porto_like(n_trajectories=50)
        train, test = ds.split(0.8, seed=0)
        assert len(train) == 40 and len(test) == 10
        assert set(t.traj_id for t in train).isdisjoint(t.traj_id for t in test)

    def test_split_deterministic(self):
        ds = make_porto_like(n_trajectories=30)
        t1, _ = ds.split(seed=5)
        t2, _ = ds.split(seed=5)
        assert [t.traj_id for t in t1] == [t.traj_id for t in t2]

    def test_split_validation(self):
        ds = make_porto_like(n_trajectories=10)
        with pytest.raises(ConfigError):
            ds.split(1.5)

    def test_dataset_point_count(self):
        ds = make_porto_like(n_trajectories=10)
        assert ds.num_points == sum(len(t) for t in ds.trajectories)

