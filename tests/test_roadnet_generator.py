"""Tests for the procedural city generator."""

import networkx as nx
import pytest

from repro.errors import ConfigError
from repro.roadnet import CityConfig, generate_city
from repro.roadnet.generator import N_DIAGONALS


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(seed=7))


class TestConfigValidation:
    def test_negative_extent(self):
        with pytest.raises(ConfigError):
            CityConfig(width_m=-1.0)

    def test_block_larger_than_city(self):
        with pytest.raises(ConfigError):
            CityConfig(width_m=100.0, height_m=100.0, block_m=500.0)

    def test_curved_fraction_range(self):
        with pytest.raises(ConfigError):
            CityConfig(curved_fraction=1.5)

    def test_city_too_small_for_grid(self):
        with pytest.raises(ConfigError):
            generate_city(CityConfig(width_m=300.0, height_m=300.0, block_m=250.0))


class TestGeneratedCity:
    def test_determinism(self):
        a = generate_city(CityConfig(seed=42))
        b = generate_city(CityConfig(seed=42))
        assert sorted(map(repr, a.nodes())) == sorted(map(repr, b.nodes()))
        assert a.total_length() == pytest.approx(b.total_length())

    def test_different_seeds_differ(self):
        a = generate_city(CityConfig(seed=1))
        b = generate_city(CityConfig(seed=2))
        assert a.total_length() != pytest.approx(b.total_length())

    def test_connected(self, city):
        assert nx.is_connected(city.graph)

    def test_extent_roughly_matches_config(self, city):
        b = city.bbox()
        assert 2500.0 <= b.width <= 3500.0
        assert 2500.0 <= b.height <= 3500.0

    def test_contains_roundabout_nodes(self, city):
        ring_nodes = [n for n in city.nodes() if isinstance(n, tuple) and n[0] == "r"]
        assert ring_nodes  # at least one roundabout was materialized

    def test_contains_curved_edges(self, city):
        curved = 0
        for u, v, data in city.graph.edges(data=True):
            if len(data["geometry"]) > 2:
                curved += 1
        assert curved > 10

    def test_curved_edges_longer_than_straight_line(self, city):
        for u, v, data in city.graph.edges(data=True):
            geom = data["geometry"]
            chord = geom[0].distance_to(geom[-1])
            assert data["length"] >= chord - 1e-6

    def test_no_roundabouts_config(self):
        city = generate_city(CityConfig(n_roundabouts=0, seed=3))
        assert not [n for n in city.nodes() if isinstance(n, tuple) and n[0] == "r"]

    def test_no_curves_config(self):
        city = generate_city(CityConfig(curved_fraction=0.0, n_roundabouts=0, seed=3))
        curved = [
            (u, v) for u, v, d in city.graph.edges(data=True) if len(d["geometry"]) > 2
        ]
        # Only the diagonal avenues bow: each joins two opposite corners.
        assert 0 < len(curved) <= N_DIAGONALS
        for u, v in curved:
            assert abs(u[1] - v[1]) > 1 and abs(u[2] - v[2]) > 1
