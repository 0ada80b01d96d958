"""Shared fixtures: small synthetic workloads, trained systems.

Everything expensive is session-scoped so the suite stays fast; tests must
not mutate fixture objects (the library's public objects are immutable
dataclasses wherever practical, which keeps this safe).
"""

from __future__ import annotations

import pytest

from repro import Kamel, KamelConfig
from repro.roadnet import CityConfig, SimulatorConfig, TrajectorySimulator, generate_city
from repro.roadnet.datasets import Dataset, make_jakarta_like, make_porto_like


@pytest.fixture(scope="session")
def small_city():
    """A small deterministic road network (~1.5 km, fast to route on)."""
    return generate_city(
        CityConfig(width_m=1500.0, height_m=1500.0, block_m=250.0, n_roundabouts=1, seed=3)
    )


@pytest.fixture(scope="session")
def small_dataset(small_city) -> Dataset:
    """~80 dense trips over the small city."""
    sim = TrajectorySimulator(
        small_city,
        SimulatorConfig(sample_interval_s=2.0, min_trip_length_m=600.0, seed=5),
    )
    return Dataset("small", small_city, tuple(sim.simulate(80, id_prefix="small")))


@pytest.fixture(scope="session")
def porto_small() -> Dataset:
    """A scaled-down Porto-like workload."""
    return make_porto_like(n_trajectories=250, scale=0.8, seed=21)


MULTILEAF_CONFIG = {"pyramid_root_extent_m": 12_000.0, "model_threshold_k": 20}
"""A pyramid over :func:`porto_small` with models at several levels and
leaves: 38 slots (7 single-cell, 31 neighbor-pair) over 30 distinct
training sets."""


@pytest.fixture(scope="session")
def multileaf_kamel(porto_small) -> Kamel:
    """A counting system fitted with :data:`MULTILEAF_CONFIG`."""
    train, _ = porto_small.split(seed=1)
    return Kamel(KamelConfig(**MULTILEAF_CONFIG)).fit(train)


@pytest.fixture(scope="session")
def multileaf_saved(multileaf_kamel, tmp_path_factory):
    """:func:`multileaf_kamel`, saved once."""
    from repro.io.serialize import save_kamel

    directory = tmp_path_factory.mktemp("multileaf")
    save_kamel(multileaf_kamel, directory)
    return directory


@pytest.fixture(scope="session")
def jakarta_small() -> Dataset:
    """A scaled-down Jakarta-like workload."""
    return make_jakarta_like(n_trajectories=60, scale=0.7, seed=23)


@pytest.fixture(scope="session")
def trained_kamel(small_dataset) -> Kamel:
    """A KAMEL system trained on the small dataset (counting backend)."""
    train, _ = small_dataset.split(seed=1)
    return Kamel(KamelConfig(max_model_calls=600)).fit(train)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    """The (train, test) split matching :func:`trained_kamel`."""
    return small_dataset.split(seed=1)
