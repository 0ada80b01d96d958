"""The pool's receiver thread: results, liveness and telemetry no longer
depend on the client calling in.

Before the receiver, ``ServingPool`` only read the result pipe from
inside ``submit`` / ``drain`` / ``stop`` (and ``submit`` read at most one
message per call), so an idle client meant a frozen pool: results piled
up in the 64 KiB pipe until the workers blocked in ``put``, and a dead
worker stayed dead. The tests here assert outcomes under a generous cap,
never a speed: each of the "idle" ones wedges at the parent commit.
"""

import os
import pathlib
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import KamelError, PoolReceiverError
from repro.io.serialize import save_kamel
from repro.obs import instrument as obs
from repro.obs.metrics import get_registry
from repro.resilience.chaos import ChaosConfig
from repro.serve import ServeConfig, ServingPool
from repro.serve import pool as pool_module

CAP_S = 30.0
PIPE_BYTES = 64 * 1024


def _wait_until(predicate, cap_s=CAP_S) -> bool:
    """Poll ``predicate`` — which must not call into the pool — until it
    holds or the cap passes; returns whether it held."""
    deadline = time.monotonic() + cap_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("receiver_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def dense_feed(small_split):
    """Dense trips: nothing to impute, so the work is small and the
    result (the whole trip echoed back) is large — 160 of them overfill
    the result pipe several times over."""
    _, test = small_split
    return [
        replace(trajectory, traj_id=f"{trajectory.traj_id}-r{copy}")
        for copy in range(10)
        for trajectory in test
    ]


@pytest.fixture(scope="module")
def sparse_feed(small_split):
    _, test = small_split
    return [t.sparsify(800.0) for t in test[:6]]


@pytest.fixture()
def fresh_serve_metrics():
    get_registry().reset(prefix="repro.serve")


def _receiver_threads():
    return [t for t in threading.enumerate() if t.name.startswith("kamel-serve")]


class TestIdleClient:
    def test_results_accepted_with_no_pool_call_in_progress(
        self, saved_dir, dense_feed, fresh_serve_metrics
    ):
        pool = ServingPool(str(saved_dir), ServeConfig(workers=2))
        with pool:
            for trajectory in dense_feed:
                pool.submit(trajectory)
            # From here the client calls nothing: `outstanding` only
            # reads a length.
            _wait_until(lambda: pool.outstanding == 0)
            stuck = pool.outstanding
            results = pool.drain(timeout=0.0)
        assert stuck == 0, f"{stuck} requests not accepted while the client idled"
        # The premise: these results could not all have waited in the pipe.
        assert sum(len(pickle.dumps(m)) for m in results.values()) > 4 * PIPE_BYTES
        assert set(results) == {t.traj_id for t in dense_feed}
        assert pool.stats.completed == pool.stats.submitted == len(dense_feed)
        assert pool.stats.lost == pool.stats.duplicates == 0

    def test_drain_returns_a_copy(self, saved_dir, sparse_feed, fresh_serve_metrics):
        with ServingPool(str(saved_dir), ServeConfig(workers=1)) as pool:
            results = pool.process_all(sparse_feed, timeout=120)
            assert results == pool.results
            assert results is not pool.results


class TestIdleRevival:
    def test_killed_worker_is_revived_with_no_pool_call_in_progress(
        self, saved_dir, sparse_feed, tmp_path, fresh_serve_metrics
    ):
        # Every worker sleeps 1.5 s between finishing a task and sending
        # its result: a window in which the task is journaled `begin`,
        # not `done`, and the worker holds no queue lock — killing an
        # *idle* worker would orphan its task queue's reader lock, which
        # no replacement survives.
        config = ServeConfig(
            workers=1,
            journal_dir=str(tmp_path),
            worker_chaos=ChaosConfig(
                seed=0, ipc_delay_rate=1.0, ipc_delay_s=1.5,
                ipc_sites=("ipc.result",),
            ),
        )
        first, *rest = sparse_feed[:3]
        journal = pathlib.Path(tmp_path) / "worker-0.jsonl"
        pool = ServingPool(str(saved_dir), config)
        with pool:
            old_pid = pool.healthz()["workers"][0]["pid"]
            pool.submit(first)
            assert _wait_until(
                lambda: journal.exists() and '"begin"' in journal.read_text()
            )
            os.kill(old_pid, signal.SIGKILL)
            # Nothing calls into the pool while it notices and recovers.
            assert _wait_until(lambda: pool.stats.worker_deaths == 1)
            assert _wait_until(lambda: pool.outstanding == 0)
            worker = pool.healthz()["workers"][0]
            assert worker["alive"] and worker["pid"] != old_pid
            results = pool.process_all(rest, timeout=120)
        assert set(results) == {t.traj_id for t in [first, *rest]}
        assert results[first.traj_id]["replayed"] is True
        assert pool.stats.worker_deaths == 1
        assert pool.stats.journal_replayed == 1
        assert pool.stats.completed == pool.stats.submitted == 3
        assert pool.stats.lost == pool.stats.duplicates == 0


class TestBlockAdmissionTimesOut:
    def test_blocked_submit_sheds_after_the_timeout(
        self, saved_dir, sparse_feed, monkeypatch, fresh_serve_metrics
    ):
        monkeypatch.setattr(pool_module, "SUBMIT_BLOCK_TIMEOUT_S", 0.3)
        config = ServeConfig(
            workers=1,
            max_queue_depth=1,
            admission_policy="block",
            # The worker freezes for 3 s before it even reports its
            # first dequeue: the shard stays full well past the timeout.
            worker_chaos=ChaosConfig(seed=0, stall_after=1, stall_s=3.0),
        )
        kept, refused = sparse_feed[:2]
        with ServingPool(str(saved_dir), config) as pool:
            pool.submit(kept)
            pool.submit(refused)
            results = pool.drain(timeout=120)
        assert obs.counter("repro.serve.submit_blocked_total").value == 1
        assert results[refused.traj_id]["shed"] is True
        assert results[refused.traj_id]["error_type"] == "OverloadError"
        assert results[kept.traj_id]["trips"]
        assert (pool.stats.completed, pool.stats.shed, pool.stats.lost) == (1, 1, 0)


class TestStop:
    def test_stop_twice_leaves_no_pool_thread(
        self, saved_dir, sparse_feed, fresh_serve_metrics
    ):
        pool = ServingPool(str(saved_dir), ServeConfig(workers=1, metrics_port=0))
        pool.start()
        assert len(_receiver_threads()) == 1
        pool.process_all(sparse_feed[:2], timeout=120)
        pool.stop()
        assert _receiver_threads() == []
        assert pool.metrics_server is None
        completed = pool.stats.completed
        pool.stop()
        assert _receiver_threads() == []
        assert pool.stats.completed == completed == 2


class TestReceiverFailureIsLoud:
    def test_malformed_message_raises_instead_of_hanging(
        self, saved_dir, sparse_feed, fresh_serve_metrics
    ):
        config = ServeConfig(
            workers=1,
            # Keeps the request outstanding while the receiver dies.
            worker_chaos=ChaosConfig(seed=0, stall_after=1, stall_s=2.0),
        )
        pool = ServingPool(str(saved_dir), config)
        pool.start()
        try:
            pool.submit(sparse_feed[0])
            pool._result_queue.put({"kind": "result"})  # no traj_id
            with pytest.raises(PoolReceiverError) as excinfo:
                pool.drain(timeout=CAP_S)
            assert isinstance(excinfo.value, KamelError)
            assert isinstance(excinfo.value.__cause__, KeyError)
            with pytest.raises(PoolReceiverError):
                pool.submit(sparse_feed[1])
        finally:
            with pytest.raises(PoolReceiverError):
                pool.stop()
        assert _receiver_threads() == []
        pool.stop()  # already stopped: a no-op, and nothing left to raise


class TestConcurrentReaders:
    def test_telemetry_reads_race_the_receiver(
        self, saved_dir, dense_feed, fresh_serve_metrics
    ):
        """More threads than cores, a switch interval short enough to
        interleave them mid-statement: the HTTP-side accessors must read
        a consistent pool and the books must still balance."""
        failures = []
        done = threading.Event()

        def read(pool):
            try:
                while not done.is_set():
                    health = pool.healthz()
                    assert health["submitted"] >= health["completed"]
                    pool.merged_snapshot()
                    slow = pool.slow()
                    assert len(slow["slowest"]) <= slow["recorded_total"]
            except Exception as exc:  # noqa: BLE001 - reported by the test
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            config = ServeConfig(workers=2, metrics_every=1)
            with ServingPool(str(saved_dir), config) as pool:
                readers = [
                    threading.Thread(target=read, args=(pool,)) for _ in range(3)
                ]
                for reader in readers:
                    reader.start()
                try:
                    results = pool.process_all(dense_feed, timeout=120)
                finally:
                    done.set()
                    for reader in readers:
                        reader.join(timeout=CAP_S)
                assert not any(reader.is_alive() for reader in readers)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(results) == pool.stats.completed == len(dense_feed)
        assert pool.stats.lost == pool.stats.duplicates == 0
