"""Overload-protection overhead: the pool-side bookkeeping per request.

Admission control and brownout run inline on the pool's submit/result
path, so their cost is paid by *every* request — overloaded or not. This
module prices the three pieces: one brownout evaluation (the controller
ticks on every submit, dequeue, and result), the admission bookkeeping a
single submit adds (depth check, buffer append, prefetch feed, gauge
update simulated at dict/deque scale), and synthesizing one shed result
message. All must stay microseconds against multi-millisecond
imputations; the assertions hold them to that order.
"""

import time
from collections import deque

import pytest

from repro.resilience.ladder import DegradationLadder, RUNG_COUNTING, RUNG_FULL
from repro.serve.overload import (
    BrownoutConfig,
    BrownoutController,
    rung_cap_for,
)
from repro.serve.protocol import result_message

from conftest import run_once, show

TICKS = 20000
SUBMITS = 20000
SHEDS = 5000


class _SteppingClock:
    """Advances past the rate-limit window on every read, so each
    evaluate() takes the full (worst-case) decision path."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _shed_message(traj_id, shard, policy):
    """The pool's synthesized OverloadError result, built as
    ``ServingPool._shed`` builds it."""
    why = "shard queue full"
    return result_message(
        shard, None, traj_id, None,
        shed=True,
        policy=policy,
        error=f"OverloadError: {why} (shard {shard}, policy {policy})",
        error_type="OverloadError",
    )


def _run():
    # Brownout: one full evaluation per tick, alternating pressure so
    # both branches (over/under) and the occasional _step() are paid.
    config = BrownoutConfig(
        high_depth=8, low_depth=1, step_down_after=2, step_up_after=2,
        interval_s=0.01,
    )
    controller = BrownoutController(config, clock=_SteppingClock(0.02))
    start = time.perf_counter()
    for i in range(TICKS):
        controller.evaluate(12 if (i // 64) % 2 == 0 else 0, 0.05)
    evaluate_us = (time.perf_counter() - start) / TICKS * 1e6
    steps = len(controller.transitions)

    # Rate-limited path: the common case — evaluate() called inside the
    # window returns immediately.
    controller2 = BrownoutController(config)  # real monotonic clock
    controller2.evaluate(0)
    start = time.perf_counter()
    for _ in range(TICKS):
        controller2.evaluate(12, 0.05)
    limited_ns = (time.perf_counter() - start) / TICKS * 1e9

    # Admission bookkeeping at submit: the per-request data-structure
    # work (depth check over buffer+queue counts, append, prefetch
    # move, id-set upkeep) without the multiprocessing transport.
    buffers = {0: deque(), 1: deque()}
    in_queue = {0: 0, 1: 0}
    in_queue_ids = set()
    max_depth, prefetch = 8, 2
    start = time.perf_counter()
    for i in range(SUBMITS):
        shard = i & 1
        if len(buffers[shard]) + in_queue[shard] >= max_depth:
            victim = buffers[shard].popleft()
            in_queue_ids.discard(victim)
        buffers[shard].append(f"traj-{i}")
        while buffers[shard] and in_queue[shard] < prefetch:
            moved = buffers[shard].popleft()
            in_queue[shard] += 1
            in_queue_ids.add(moved)
    submit_us = (time.perf_counter() - start) / SUBMITS * 1e6

    # Shed-result synthesis: the message the caller gets instead of
    # silence.
    start = time.perf_counter()
    messages = [_shed_message(f"traj-{i}", i & 1, "shed") for i in range(SHEDS)]
    shed_us = (time.perf_counter() - start) / SHEDS * 1e6

    # The worker-side cap decision (per task): level -> rung cap -> one
    # ladder comparison.
    start = time.perf_counter()
    for i in range(TICKS):
        cap = rung_cap_for(i % 3)
        DegradationLadder.allows(RUNG_FULL, cap)
        DegradationLadder.tighter_cap(cap, RUNG_COUNTING)
    cap_ns = (time.perf_counter() - start) / TICKS * 1e9

    return {
        "evaluate_us": evaluate_us,
        "evaluate_limited_ns": limited_ns,
        "submit_bookkeeping_us": submit_us,
        "shed_synthesis_us": shed_us,
        "rung_cap_ns": cap_ns,
        "brownout_steps": steps,
        "shed_messages": len(messages),
    }


@pytest.fixture(scope="module")
def overload_run():
    return _run()


def test_overload_overhead_regenerate(benchmark, capsys):
    result = run_once(benchmark, _run)
    metrics = [
        "evaluate_us",
        "evaluate_limited_ns",
        "submit_bookkeeping_us",
        "shed_synthesis_us",
        "rung_cap_ns",
    ]
    show(
        capsys,
        "Overload protection: per-request admission + brownout cost",
        "metric",
        metrics,
        {"serve_overload": [result[m] for m in metrics]},
    )
    assert result["brownout_steps"] > 0
    assert result["shed_messages"] == SHEDS


def test_brownout_evaluation_is_microseconds(overload_run):
    # The full decision path runs on every submit/dequeue/result; it
    # must be invisible next to a multi-millisecond imputation.
    assert overload_run["evaluate_us"] < 100


def test_rate_limited_tick_is_nanoseconds(overload_run):
    # The common case (inside the interval window) is one clock read
    # and a comparison.
    assert overload_run["evaluate_limited_ns"] < 20_000


def test_admission_bookkeeping_is_microseconds(overload_run):
    assert overload_run["submit_bookkeeping_us"] < 100


def test_shed_synthesis_is_microseconds(overload_run):
    assert overload_run["shed_synthesis_us"] < 200


def test_rung_cap_decision_is_nanoseconds(overload_run):
    assert overload_run["rung_cap_ns"] < 50_000
