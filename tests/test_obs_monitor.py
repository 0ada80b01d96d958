"""Unit tests for repro.obs.monitor: rolling windows, thresholds, the hub."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    LevelWindow,
    MonitorHub,
    RollingMonitor,
    RollingWindow,
    Threshold,
)


class TestRollingWindow:
    def test_mean_and_sum(self):
        window = RollingWindow(capacity=4)
        for value in (1.0, 2.0, 3.0):
            window.push(value)
        assert window.sum == 6.0
        assert window.mean == 2.0
        assert len(window) == 3

    def test_eviction_keeps_only_recent(self):
        window = RollingWindow(capacity=3)
        for value in (10.0, 1.0, 2.0, 3.0):
            window.push(value)
        assert len(window) == 3
        assert window.sum == pytest.approx(6.0)
        assert window.max == 3.0

    def test_long_run_sum_stays_consistent(self):
        window = RollingWindow(capacity=16)
        for i in range(1000):
            window.push(float(i % 7))
        assert window.sum == pytest.approx(sum([float(i % 7) for i in range(984, 1000)]))

    def test_quantile_interpolates(self):
        window = RollingWindow(capacity=100)
        for value in range(1, 101):
            window.push(float(value))
        assert window.quantile(0.0) == 1.0
        assert window.quantile(1.0) == 100.0
        assert window.quantile(0.5) == pytest.approx(50.5)

    def test_empty_window(self):
        window = RollingWindow()
        assert window.mean == 0.0
        assert window.min is None
        assert window.quantile(0.5) is None

    def test_extend_bits(self):
        window = RollingWindow(capacity=10)
        window.extend_bits(2, 5)
        assert len(window) == 5
        assert window.mean == pytest.approx(0.4)
        with pytest.raises(ValueError):
            window.extend_bits(3, 2)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RollingWindow(capacity=0)


class TestRollingMonitor:
    def test_windowed_rate_tracks_recent_not_lifetime(self):
        monitor = RollingMonitor("failure", capacity=10)
        monitor.extend(10, 10)   # terrible past ...
        monitor.extend(0, 10)    # ... fully evicted by a clean present
        assert monitor.value == 0.0

    def test_threshold_fires_once_and_rearms(self):
        fired, cleared = [], []
        monitor = RollingMonitor("failure", capacity=10)
        monitor.add_threshold(
            0.5,
            lambda m, v: fired.append(v),
            min_count=4,
            on_clear=lambda m, v: cleared.append(v),
        )
        monitor.extend(4, 4)          # 100% bad, above limit
        monitor.extend(0, 1)          # still above: no second alert
        assert len(fired) == 1 and monitor.breached
        monitor.extend(0, 5)          # window mean 0.4 < 0.5: recovers
        assert len(cleared) == 1 and not monitor.breached
        monitor.extend(10, 10)        # breaches again after re-arming
        assert len(fired) == 2

    def test_threshold_needs_min_count(self):
        fired = []
        monitor = RollingMonitor("failure", capacity=10)
        monitor.add_threshold(0.5, lambda m, v: fired.append(v), min_count=5)
        monitor.extend(3, 3)
        assert not fired, "window below min_count must stay silent"
        monitor.extend(2, 2)
        assert len(fired) == 1

    def test_below_direction(self):
        fired = []
        monitor = RollingMonitor("hit_rate", capacity=10)
        monitor.add_threshold(
            0.5, lambda m, v: fired.append(v), direction="below", min_count=2
        )
        monitor.observe(1.0)
        monitor.observe(0.0)
        assert not fired            # 0.5 is not below 0.5
        monitor.observe(0.0)
        assert len(fired) == 1

    def test_reset_empties_window_and_rearms(self):
        monitor = RollingMonitor("x", capacity=4)
        monitor.add_threshold(0.5, lambda m, v: None, min_count=1)
        monitor.extend(4, 4)
        assert monitor.breached
        monitor.reset()
        assert monitor.count == 0 and not monitor.breached

    def test_extend_ignores_empty_batches(self):
        monitor = RollingMonitor("x")
        assert monitor.extend(0, 0) == 0.0
        assert monitor.count == 0

    def test_invalid_threshold_direction(self):
        with pytest.raises(ValueError):
            Threshold(0.5, lambda m, v: None, direction="sideways")


class TestLevelWindow:
    def test_rates_by_level_with_misses(self):
        window = LevelWindow("hit_level", capacity=10)
        for level in (2, 2, 1, None):
            window.observe(level)
        assert window.rates() == {"L1": 0.25, "L2": 0.5, "miss": 0.25}

    def test_rolls_over(self):
        window = LevelWindow("hit_level", capacity=2)
        for level in (0, 1, 2):
            window.observe(level)
        assert window.rates() == {"L1": 0.5, "L2": 0.5}

    def test_empty(self):
        assert LevelWindow("x").rates() == {}


class TestMonitorHub:
    def test_standard_monitors_exist(self):
        hub = MonitorHub()
        assert set(hub.all()) == {
            "failure", "degraded", "latency", "rejection", "hit_rate", "hit_level",
        }

    def test_reset_clears_every_window(self):
        hub = MonitorHub()
        hub.failure.extend(1, 2)
        hub.hit_level.observe(3)
        hub.reset()
        assert hub.failure.count == 0
        assert len(hub.hit_level) == 0

    def test_to_dict_is_json_shaped(self):
        hub = MonitorHub()
        hub.latency.observe(0.25)
        snapshot = hub.to_dict()
        assert snapshot["latency"]["value"] == 0.25
        assert snapshot["hit_level"] == {"count": 0, "rates": {}}


class TestRegistryIntegration:
    def test_each_registry_owns_a_hub(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.monitors.failure.extend(1, 1)
        assert b.monitors.failure.count == 0

    def test_full_registry_reset_resets_monitors(self):
        registry = MetricsRegistry()
        registry.monitors.failure.extend(1, 1)
        registry.reset()
        assert registry.monitors.failure.count == 0

    def test_prefixed_reset_leaves_monitors_alone(self):
        registry = MetricsRegistry()
        registry.monitors.failure.extend(1, 1)
        registry.reset(prefix="repro.kamel")
        assert registry.monitors.failure.count == 1

    def test_empty_registry_is_not_mistaken_for_the_default(self):
        """An empty registry is falsy (len 0); accessors must still honor
        it instead of falling back to the global registry."""
        from repro.obs.instrument import monitors

        empty = MetricsRegistry()
        assert len(empty) == 0 and not empty
        assert monitors(empty) is empty.monitors
