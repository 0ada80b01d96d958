"""Calibrated time: the interval arithmetic, and the process's lifetime."""

import time

import numpy as np
import pytest

from perf.calibrate import (
    REFERENCE_PROBE_S,
    SMOOTH_S,
    ArrayProbe,
    Calibrator,
    mean_between,
    probe,
)


def _samples(times, probes):
    return np.asarray(times, dtype=float), np.concatenate(([0.0], np.cumsum(probes)))


class TestMeanBetween:
    TIMES, CUMULATIVE = _samples([10.0, 11.0, 12.0, 13.0, 14.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_averages_the_samples_inside_the_widened_interval(self):
        assert mean_between(self.TIMES, self.CUMULATIVE, 11.0, 13.0) == pytest.approx(3.0)
        # The smoothing margin pulls in a sample just outside.
        inside = mean_between(self.TIMES, self.CUMULATIVE, 11.0 + SMOOTH_S / 2, 12.0)
        assert inside == pytest.approx(2.5)

    def test_falls_back_to_the_nearest_sample(self):
        assert mean_between(self.TIMES, self.CUMULATIVE, 11.4, 11.5) == pytest.approx(3.0)
        assert mean_between(self.TIMES, self.CUMULATIVE, 1.0, 2.0) == pytest.approx(1.0)
        assert mean_between(self.TIMES, self.CUMULATIVE, 90.0, 91.0) == pytest.approx(5.0)


def test_probe_times_fixed_work_on_the_clock_it_is_given():
    assert 0.0 < probe(time.thread_time) < 1.0
    assert 0.0 < probe(time.perf_counter) < 1.0


def test_ticks_feed_a_foreground_calibrator_at_most_once_a_period():
    with Calibrator(background=False) as calibrator:
        started = time.perf_counter()
        assert calibrator.tick() > 0.0
        assert calibrator.tick() == 0.0  # too soon
        assert calibrator.tick(force=True) > 0.0
        summary = calibrator.summary()
        factor = calibrator.scale(started, time.perf_counter())
    assert summary["machine.samples"] == 2
    assert factor == pytest.approx(REFERENCE_PROBE_S / (summary["machine.probe_ms"] / 1e3))


def test_array_probe_leaves_the_blas_threads_asleep():
    # Woken, they spin through whatever runs next and double its CPU time.
    array_probe = ArrayProbe()
    cpu, wall = time.process_time(), time.perf_counter()
    for _ in range(40):
        assert 0.0 < array_probe(time.perf_counter) < 1.0
    assert (time.process_time() - cpu) / (time.perf_counter() - wall) < 1.3


def test_array_share_blends_the_two_probes():
    with Calibrator(background=False, array_share=0.5) as calibrator:
        # Both probes ran: the tick cost what the two cost together, and
        # the sample is their mean, so about half the tick.
        took = calibrator.tick()
        blended = calibrator.summary()["machine.probe_ms"] / 1e3
    assert 0.0 < blended < took
    with pytest.raises(ValueError):
        Calibrator(background=True, array_share=0.5)
    with pytest.raises(ValueError):
        Calibrator(background=False, array_share=1.5)


def test_background_calibrator_samples_by_itself_and_stops_its_process():
    started = time.perf_counter()
    with Calibrator(background=True) as calibrator:
        assert calibrator.tick() == 0.0  # the process does the probing
        factor = calibrator.scale(started, time.perf_counter())
        process = calibrator._proc
        assert process.is_alive()
        time.sleep(0.3)
        summary = calibrator.summary()
    assert not process.is_alive()
    assert summary["machine.samples"] >= 2
    # A slow machine scales durations down, a fast one up; either way
    # the factor is the reference over a plausible probe time.
    assert factor == pytest.approx(
        REFERENCE_PROBE_S / (summary["machine.probe_ms"] / 1e3), rel=0.6
    )
