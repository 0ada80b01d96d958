"""Calibrated time: taking the machine's own speed out of the timings.

The boxes this benchmark runs on share their cores with other tenants:
CPU speed (and with it process CPU time) drifts by 1.5-2x over seconds
to minutes, which put a 7-36 % interquartile spread on every raw timing
of ten consecutive runs of one commit. A :class:`Calibrator` therefore
keeps running a fixed ~5 ms probe, and the harness multiplies every
CPU-bound duration it reports by

    REFERENCE_PROBE_S / (mean probe time over that same interval)

— the duration as it would have been on a machine where the probe takes
exactly ``REFERENCE_PROBE_S``. Durations set by a clock rather than by
the CPU (``serve_paced``'s schedule, the time a request spends waiting)
are left as they are. The probe belongs to the benchmark, so no change
to the program can move it, and the factor is kept beside every value it
scaled (``calibration`` in each pass row, ``machine.calibration``), so
wall-clock values can always be recovered.

What the probe does has to resemble what the workload does: interpreter
work and numpy work do not slow down together on these boxes. So there
are two probes, :func:`probe` (interpreter) and :class:`ArrayProbe`
(numpy calls on arrays the size of the repo's BERT), each costing about
``REFERENCE_PROBE_S`` at the box's usual speed, and a workload states its
``array_share``: the share of its time spent inside numpy, in which the
two probe times are blended. Ten minutes of both probes interleaved with
``bulk_bert`` requests (78 % of whose time is ``predict_masked``), cut
into simulated runs: these ranged over 12.5 % scaled by the interpreter
probe alone, 7.7 % by the array probe alone and 6.5 % blended at 0.8
(worst ten consecutive: spread 5.5 %, 3.4 %, 3.8 %). The
counting-backend workloads run no numpy worth the name and use the
interpreter probe only.

Where the probe runs matters as much as what it does:

* ``bulk_*`` is one thread, so the probe runs **in that thread**, between
  requests (:meth:`Calibrator.tick`), timed on the wall clock — it sees
  exactly the core, the sibling hyperthread and the descheduling the
  requests around it see. A probe in a second process would sometimes
  share the harness's core and sometimes its hyperthread sibling, and
  read 15 % apart between two runs of a quiet machine.
* ``serve_*`` is already four processes on two cores, and ``drain`` is a
  single call nothing can be interleaved with, so there the probe runs in
  a **process of its own**, about eighteen times a second, on each core
  in turn, timed on its thread's CPU clock (which its own descheduling
  does not advance).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Callable, Sequence

import numpy as np

REFERENCE_PROBE_S = 0.005
"""What the probe costs on this box at its usual speed; the unit every
calibrated time is expressed in."""
BACKGROUND_PERIOD_S = 0.05
TICK_PERIOD_S = 0.1
SMOOTH_S = 0.25
"""Samples this far either side of an interval count towards its mean:
one probe alone is ±5 % noisy, a handful are not."""


def probe(clock: Callable[[], float]) -> float:
    """A fixed mix of dict, float, tuple and sort work — what the
    program's hot paths are made of — timed on ``clock``."""
    started = clock()
    table: dict[int, int] = {}
    total = 0.0
    for i in range(30000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + 1
        total += (i * 0.5) ** 0.5
    pairs = [(j, j * 0.1) for j in range(1500)]
    pairs.sort(key=lambda pair: -pair[1])
    return clock() - started


class ArrayProbe:
    """One transformer layer and the output projection, at the sizes of
    the repo's BERT (24 tokens, hidden 48, feed-forward 192, a
    1500-cell vocabulary), a fixed number of times: many short numpy
    calls on small arrays, timed on ``clock``."""

    ROUNDS = 55

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((24, 48))
        self._attend = rng.standard_normal((48, 48))
        self._up = rng.standard_normal((48, 192))
        self._down = rng.standard_normal((192, 48))
        self._vocabulary = rng.standard_normal((48, 1500))
        self(time.perf_counter)  # the first call pays for numpy's lazy set-up

    def __call__(self, clock: Callable[[], float]) -> float:
        started = clock()
        for _ in range(self.ROUNDS):
            hidden = self._x @ self._attend
            scores = hidden @ hidden.T
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            scores /= scores.sum(axis=-1, keepdims=True)
            hidden = scores @ hidden
            hidden = (hidden - hidden.mean(-1, keepdims=True)) / np.sqrt(
                hidden.var(-1, keepdims=True) + 1e-5
            )
            hidden = np.maximum(hidden @ self._up, 0.0) @ self._down
            # One row only: a product this wide over all 24 would wake
            # OpenBLAS's threads, which then spin through the requests
            # that follow and double the CPU time they are charged.
            hidden[:1] @ self._vocabulary
        return clock() - started


def _sample_until_told(conn, period_s: float) -> None:
    """The calibration process: probe, report, wait; any message stops
    it. Each probe runs pinned to the next of the cores in turn: left to
    the scheduler the sampler stays on one for minutes, and the cores do
    not slow down together (their probe times were up to 19 % apart over
    20 s windows of a quiet quarter of an hour)."""
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    turn = 0
    while not conn.poll(period_s):
        if cores:
            os.sched_setaffinity(0, {cores[turn % len(cores)]})
            turn += 1
        at = time.time()
        conn.send((at, probe(time.thread_time)))


def mean_between(
    times: np.ndarray, cumulative: np.ndarray, start: float, end: float
) -> float:
    """Mean probe time over the samples taken in ``[start, end]`` widened
    by ``SMOOTH_S``; the nearest sample when none fell inside."""
    low = int(np.searchsorted(times, start - SMOOTH_S, side="left"))
    high = int(np.searchsorted(times, end + SMOOTH_S, side="right"))
    if high > low:
        return float(cumulative[high] - cumulative[low]) / (high - low)
    nearest = min(max(low, 0), len(times) - 1)
    return float(cumulative[nearest + 1] - cumulative[nearest])


class Calibrator:
    """Collects probe samples and answers "how fast was the machine
    between these two instants" on the ``time.perf_counter`` clock.

    ``background=True`` starts the calibration process; otherwise the
    caller feeds it by calling :meth:`tick` from its own loop, and
    ``array_share`` of every sample then comes from the array probe.
    """

    def __init__(self, background: bool, array_share: float = 0.0) -> None:
        if not 0.0 <= array_share <= 1.0 or (background and array_share):
            raise ValueError("array_share is a share, and foreground only")
        self._background = background
        self._array_share = array_share
        self._array_probe = ArrayProbe() if array_share else None
        self._conn = None
        self._proc = None
        self._times: list[float] = []
        self._probes: list[float] = []
        self._last_tick = float("-inf")
        # perf_counter is what the harness times with; the sampler stamps
        # epoch time, the one clock two processes are sure to share.
        self._epoch_offset = time.time() - time.perf_counter()

    def __enter__(self) -> "Calibrator":
        if self._background:
            ctx = mp.get_context("spawn")
            self._conn, child = ctx.Pipe()
            self._proc = ctx.Process(
                target=_sample_until_told, args=(child, BACKGROUND_PERIOD_S),
                name="perf-calibrate", daemon=True,
            )
            self._proc.start()
            child.close()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send("stop")
        except OSError:
            pass  # the sampler is already gone
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._conn.close()

    def tick(self, force: bool = False) -> float:
        """Run the probe here and now unless one ran within
        ``TICK_PERIOD_S``; returns the seconds it took (0.0 if skipped),
        for the caller to leave out of what it is timing. A no-op when
        the background process is sampling."""
        if self._background:
            return 0.0
        now = time.perf_counter()
        if not force and now - self._last_tick < TICK_PERIOD_S:
            return 0.0
        took = blended = probe(time.perf_counter)
        if self._array_probe is not None:
            array_took = self._array_probe(time.perf_counter)
            share = self._array_share
            blended = (1.0 - share) * took + share * array_took
            took += array_took
        self._times.append(now + took / 2.0)
        self._probes.append(blended)
        self._last_tick = now + took
        return took

    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        if self._background:
            while self._conn.poll(0):
                at, took = self._conn.recv()
                self._times.append(at - self._epoch_offset)
                self._probes.append(took)
            if not self._times:
                # Nothing yet (the process is still importing): wait for one.
                if not self._conn.poll(10.0):
                    raise RuntimeError("the calibration process produced no sample")
                return self._samples()
        elif not self._times:
            self.tick(force=True)
        return np.asarray(self._times), np.concatenate(([0.0], np.cumsum(self._probes)))

    def scale(self, start: float, end: float) -> float:
        """The factor for one interval of ``perf_counter`` time."""
        return self.scales([start], [end])[0]

    def scales(self, starts: Sequence[float], ends: Sequence[float]) -> list[float]:
        """The factor for each of many intervals."""
        times, cumulative = self._samples()
        return [
            REFERENCE_PROBE_S / mean_between(times, cumulative, a, b)
            for a, b in zip(starts, ends)
        ]

    def epoch_to_clock(self, epoch: float) -> float:
        """An epoch timestamp (worker messages carry those) on the
        ``perf_counter`` clock."""
        return epoch - self._epoch_offset

    def summary(self) -> dict[str, float]:
        times, cumulative = self._samples()
        return {
            "machine.samples": float(len(times)),
            "machine.probe_ms": float(cumulative[-1]) / len(times) * 1e3,
        }
