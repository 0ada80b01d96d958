"""End-to-end distributed tracing for the sharded serving pool.

Unit half: the five-stage breakdown arithmetic and the bounded
:class:`FlightRecorder`. Multiprocess half: one 2-worker pool run with
tracing on — outputs must stay byte-identical to the single-process
baseline, every request must come back with a stage breakdown whose sum
tracks the measured wall latency (the paper-demo acceptance bound is
10%), and the merged span trees must form coherent per-shard lanes in
the Chrome export.
"""

import json
import pickle
import queue
import random
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.io.serialize import load_kamel, save_kamel
from repro.obs.flight import (
    STAGES,
    FlightRecord,
    FlightRecorder,
    stage_breakdown,
    stage_metric,
)
from repro.obs.metrics import MetricsRegistry, get_registry, merge_snapshots
from repro.obs.tracing import (
    Span,
    clear_spans,
    disable_tracing,
    enable_tracing,
    span,
)
from repro.resilience.chaos import ChaosConfig
from repro.resilience.journal import trajectory_to_payload
from repro.serve import ServeConfig, ServingPool, WorkerSpec
from repro.serve.protocol import TaskEnvelope, result_message
from repro.serve.worker import _process_one, _rebased_deadline, worker_main


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("tracing_model")
    save_kamel(trained_kamel, directory)
    return directory


@pytest.fixture(scope="module")
def sparse_feed(small_split):
    _, test = small_split
    return [t.sparsify(800.0) for t in test[:10]]


@pytest.fixture(scope="module")
def baseline(saved_dir, sparse_feed):
    system = load_kamel(saved_dir)
    service = StreamingImputationService(system, StreamingConfig())
    return {
        t.traj_id: [trajectory_to_payload(r.trajectory) for r in service.process(t)]
        for t in sparse_feed
    }


def _span_with(name, start, end):
    s = Span(name)
    s.start_s = start
    s.end_s = end
    return s


class TestStageBreakdown:
    def test_without_spans_processing_is_all_inference(self):
        stages = stage_breakdown(0.5, queue_wait_s=0.1, transit_s=0.02)
        assert stages == {
            "queue_wait": pytest.approx(0.1),
            "model_load": 0.0,
            "inference": pytest.approx(0.5),
            "detokenize": 0.0,
            "result_transit": pytest.approx(0.02),
        }

    def test_spans_carve_load_and_detokenize_out_of_processing(self):
        root = _span_with("streaming.process", 0.0, 0.5)
        root.children = [
            _span_with("serve.model_load", 0.0, 0.2),
            _span_with("detokenize", 0.3, 0.4),
        ]
        stages = stage_breakdown(0.5, 0.0, 0.0, roots=[root])
        assert stages["model_load"] == pytest.approx(0.2)
        assert stages["detokenize"] == pytest.approx(0.1)
        assert stages["inference"] == pytest.approx(0.2)

    def test_partition_is_exact(self):
        root = _span_with("r", 0.0, 0.4)
        root.children = [_span_with("serve.model_load", 0.0, 0.15)]
        stages = stage_breakdown(0.4, 0.05, 0.01, roots=[root])
        assert sum(stages.values()) == pytest.approx(0.4 + 0.05 + 0.01)

    def test_span_overshoot_clamped_to_processing(self):
        # A span exit reads the clock later than the enclosing stopwatch
        # did; the parts must still never exceed the whole.
        root = _span_with("r", 0.0, 0.3)
        root.children = [
            _span_with("serve.model_load", 0.0, 0.25),
            _span_with("detokenize", 0.0, 0.25),
        ]
        stages = stage_breakdown(0.3, 0.0, 0.0, roots=[root])
        assert stages["model_load"] == pytest.approx(0.25)
        assert stages["detokenize"] == pytest.approx(0.05)
        assert stages["inference"] == 0.0

    def test_clock_skew_never_goes_negative(self):
        stages = stage_breakdown(0.1, queue_wait_s=-0.003, transit_s=-0.001)
        assert all(value >= 0.0 for value in stages.values())

    def test_stage_vocabulary_is_fixed(self):
        assert set(stage_breakdown(0.0, 0.0, 0.0)) == set(STAGES)


def _record(trace_id, latency, **stages):
    full = {stage: 0.0 for stage in STAGES}
    full.update(stages)
    return FlightRecord(
        trace_id=trace_id, traj_id=f"traj-{trace_id}", latency_s=latency,
        stages=full,
    )


class TestFlightRecorder:
    def test_keeps_only_the_slowest_n(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record(_record(f"{i:016x}", latency=float(i)))
        assert recorder.recorded_total == 10
        assert len(recorder) == 3
        assert [r.latency_s for r in recorder.slowest()] == [9.0, 8.0, 7.0]

    def test_exemplars_track_the_worst_observation_per_stage(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(_record("a" * 16, 1.0, queue_wait=0.9, inference=0.1))
        recorder.record(_record("b" * 16, 0.5, queue_wait=0.1, inference=0.4))
        exemplars = recorder.exemplars()
        assert exemplars["queue_wait"]["trace_id"] == "a" * 16
        assert exemplars["inference"]["trace_id"] == "b" * 16

    def test_registry_histograms_feed_the_stage_summary(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=4, registry=registry)
        for i in range(4):
            recorder.record(_record(f"{i:016x}", 0.2, inference=0.1 * (i + 1)))
        assert registry.get(stage_metric("inference")).count == 4
        summary = recorder.stage_summary()
        assert summary["inference"]["count"] == 4
        assert summary["inference"]["max"] == pytest.approx(0.4)
        assert summary["inference"]["exemplar_trace_id"] == f"{3:016x}"
        assert summary["inference"]["p99"] is not None

    def test_stage_summary_quantiles_equal_the_merged_snapshot(self):
        """``/slow`` and the pool's ``/metrics`` read the same p50/p99."""
        rng = random.Random(7)
        registry = MetricsRegistry()
        recorder = FlightRecorder(capacity=4, registry=registry)
        for i in range(400):
            recorder.record(
                _record(
                    f"{i:016x}", 0.2,
                    queue_wait=rng.lognormvariate(-4.0, 0.8),
                    inference=rng.lognormvariate(-3.0, 0.5),
                )
            )
        summary = recorder.stage_summary()
        merged = merge_snapshots([registry.snapshot()])
        for stage in STAGES:
            quantiles = merged[stage_metric(stage)]["quantiles"]
            assert summary[stage]["p50"] == quantiles["p50"]
            assert summary[stage]["p99"] == quantiles["p99"]

    def test_to_dict_is_json_serializable(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(_record("c" * 16, 0.3, inference=0.3))
        payload = json.loads(json.dumps(recorder.to_dict()))
        assert payload["capacity"] == 2
        assert payload["recorded_total"] == 1
        assert payload["slowest"][0]["trace_id"] == "c" * 16
        assert payload["slowest"][0]["dominant_stage"] == "inference"

    def test_record_round_trips_with_spans(self):
        record = _record("d" * 16, 0.7, queue_wait=0.7)
        record.shard = 1
        record.roots = [_span_with("serve.request", 0.0, 0.7)]
        clone = FlightRecord.from_dict(record.to_dict())
        assert clone.trace_id == record.trace_id
        assert clone.stages == record.stages
        assert clone.shard == 1
        assert clone.roots[0].name == "serve.request"
        assert clone.dominant_stage == "queue_wait"

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(_record("e" * 16, 0.1))
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded_total == 0
        assert recorder.exemplars() == {}


class _FailingService:
    def process(self, trajectory, deadline=None, max_rung=None):
        raise RuntimeError("boom")


@pytest.fixture(scope="module")
def result_kinds(saved_dir, sparse_feed):
    """One result message of each kind, each built by the code path that
    builds it in production (the worker loop run in-process on plain
    queues, and the pool's admission refusal)."""
    spec = WorkerSpec(worker_id=1, shard=0, model_dir=str(saved_dir))
    now = time.time()
    tasks, sent = queue.Queue(), queue.Queue()
    tasks.put(TaskEnvelope(sparse_feed[0], "a" * 16, now))
    tasks.put(
        TaskEnvelope(
            sparse_feed[1], "b" * 16, now - 10.0,
            deadline_epoch=now - 5.0, deadline_budget_s=5.0,
        )
    )
    tasks.put(None)
    worker_main(spec, tasks, sent)
    messages = []
    while not sent.empty():
        messages.append(sent.get_nowait())
    assert [m["kind"] for m in messages] == ["result", "result", "bye"]
    served, expired = (m for m in messages if m["kind"] == "result")
    assert served["trips"] and not served.get("expired")
    assert expired["expired"] is True

    _process_one(
        spec, _FailingService(), None, sent, sparse_feed[2], False, "c" * 16
    )
    worker_error = sent.get_nowait()
    assert worker_error["error"] == "RuntimeError('boom')"

    pool = ServingPool(str(saved_dir), ServeConfig(workers=1, max_queue_depth=1))
    assert pool.ledger.submit("t-busy", 0)  # never started: no worker sees it
    assert pool.ledger.submit("t-shed", 0) is None
    shed = pool.results["t-shed"]
    assert shed["shed"] is True
    return {
        "served": served,
        "worker_error": worker_error,
        "expired": expired,
        "shed": shed,
    }


class TestWorkerEnvelope:
    @pytest.mark.parametrize("kind", ["served", "worker_error", "expired", "shed"])
    def test_every_result_kind_honours_the_contract(self, result_kinds, kind):
        """Readers (PoolStats accounting, ``kamel serve --output``,
        perf/) index result dicts without ``.get``:
        whatever produced the result, the base keys are there with the
        base types, and the message survives both wires it travels on."""
        message = result_kinds[kind]
        base = result_message(0, 1, "t", 0.0, error="")
        assert set(base) <= set(message)
        assert message["kind"] == "result"
        for key, exemplar in base.items():
            if message[key] is None:
                # Only a shed result never reached a worker.
                assert key == "error" or (
                    kind == "shed" and key in ("worker_id", "start_epoch")
                ), key
            else:
                assert type(message[key]) is type(exemplar), key
        assert (message["error"] is None) == (kind == "served")
        assert json.loads(json.dumps(message)) == message
        assert pickle.loads(pickle.dumps(message)) == message

    def test_envelope_without_deadline_has_no_budget(self, sparse_feed):
        envelope = TaskEnvelope(sparse_feed[0], "f" * 16, time.time())
        assert _rebased_deadline(envelope) is None

    def test_envelope_deadline_is_rebased_onto_the_local_clock(self, sparse_feed):
        now = time.time()
        live = _rebased_deadline(
            TaskEnvelope(
                sparse_feed[0], "f" * 16, now,
                deadline_epoch=now + 30.0, deadline_budget_s=30.0,
            )
        )
        assert live.budget_s == 30.0
        assert not live.expired
        assert live.remaining() == pytest.approx(30.0, abs=1.0)
        stale = _rebased_deadline(
            TaskEnvelope(
                sparse_feed[0], "f" * 16, now - 40.0,
                deadline_epoch=now - 10.0, deadline_budget_s=30.0,
            )
        )
        assert stale.expired

    def test_worker_spec_survives_the_spawn_pickle(self):
        """``spawn`` ships the spec — and the whole ServeConfig inside it,
        nested configs included — through pickle."""
        spec = WorkerSpec(
            worker_id=3, shard=1, model_dir="unused", recover=True,
            config=ServeConfig(
                workers=2,
                journal_dir="journals",
                worker_chaos=ChaosConfig(seed=5, crash_after=2, stall_after=2, stall_s=0.1),
            ),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_span_batch_bounds_shipped_spans(self):
        """Overflow roots are dropped and counted, never shipped."""
        get_registry().reset(prefix="repro.serve")
        enable_tracing()
        clear_spans()
        try:
            class _Service:
                def process(self, trajectory, deadline=None, max_rung=None):
                    for i in range(5):
                        with span(f"work.{i}"):
                            pass
                    return []

            spec = WorkerSpec(
                worker_id=0, shard=0, model_dir="unused",
                config=ServeConfig(trace=True, span_batch=2),
            )
            results = queue.Queue()
            _process_one(
                spec, _Service(), None, results,
                SimpleNamespace(traj_id="t-1"), False, "0123456789abcdef",
            )
            message = results.get_nowait()
        finally:
            disable_tracing()
            clear_spans()
        assert message["trace_id"] == "0123456789abcdef"
        assert message["start_epoch"] is not None
        assert "clock_offset" in message
        assert [d["name"] for d in message["spans"]] == ["work.0", "work.1"]
        dropped = get_registry().get("repro.serve.spans_dropped_total")
        assert dropped is not None and dropped.value == 3


class TestTracedPool:
    @pytest.fixture(scope="class")
    def traced_run(self, saved_dir, sparse_feed, tmp_path_factory):
        """One traced 2-worker run shared by every assertion below."""
        get_registry().reset(prefix="repro.serve")
        config = ServeConfig(
            workers=2,
            trace=True,
            flight_capacity=64,
            metrics_port=0,
            journal_dir=str(tmp_path_factory.mktemp("tracing_journal")),
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            results = pool.process_all(sparse_feed, timeout=120)
            slow_live = json.loads(
                urllib.request.urlopen(
                    pool.metrics_server.url + "/slow", timeout=5
                ).read()
            )
        return pool, results, slow_live

    def test_tracing_does_not_change_outputs(self, traced_run, baseline):
        _, results, _ = traced_run
        assert set(results) == set(baseline)
        for traj_id, expected in baseline.items():
            assert results[traj_id]["trips"] == expected

    def test_every_request_traced(self, traced_run, sparse_feed):
        pool, _, _ = traced_run
        assert pool.flight.recorded_total == len(sparse_feed)
        counter = get_registry().get("repro.serve.traced_requests_total")
        assert counter is not None and counter.value == len(sparse_feed)

    def test_stage_sums_track_measured_latency(self, traced_run):
        """The demo acceptance bound: every completed trajectory's stage
        durations sum to within 10% of its measured wall latency."""
        pool, _, _ = traced_run
        records = pool.flight.slowest()
        assert records
        for record in records:
            total = sum(record.stages.values())
            assert total == pytest.approx(record.latency_s, rel=0.10), (
                f"stages {record.stages} do not partition "
                f"latency {record.latency_s} for {record.trace_id}"
            )

    def test_flight_records_carry_full_span_trees(self, traced_run):
        pool, _, _ = traced_run
        for record in pool.flight.slowest():
            (request,) = record.roots
            assert request.name == "serve.request"
            child_names = [c.name for c in request.children]
            assert child_names[0] == "serve.queue_wait"
            assert child_names[-1] == "serve.result_transit"
            assert request.find("streaming.process"), "worker spans missing"
            assert all(s.trace_id == record.trace_id for s in request.walk())

    def test_merged_trace_has_one_lane_per_shard(self, traced_run, sparse_feed):
        pool, _, _ = traced_run
        records = pool.flight.slowest()
        assert len(records) == len(sparse_feed)
        for record in records:
            (request,) = record.roots
            assert {s.thread_id for s in request.walk()} == {record.shard + 1}
        assert {record.roots[0].thread_id for record in records} == {1, 2}

    def test_slow_route_serves_the_flight_payload(self, traced_run, sparse_feed):
        _, _, slow = traced_run
        assert slow["recorded_total"] == len(sparse_feed)
        assert set(slow["stages"]) == set(STAGES)
        assert slow["stages"]["inference"]["count"] == len(sparse_feed)
        assert slow["slowest"], "slowest list must not be empty"
        worst = slow["slowest"][0]
        assert worst["spans"], "retained requests keep their span trees"

    def test_tail_and_trace_read_the_live_payload(self, traced_run, tmp_path, capsys):
        """A saved ``/slow`` is what ``kamel tail`` and ``kamel trace
        --from`` read: every stage in the table, one request tree per
        retained record."""
        _, _, slow = traced_run
        path = tmp_path / "flight.json"
        path.write_text(json.dumps(slow))
        assert main(["tail", str(path)]) == 0
        out = capsys.readouterr().out
        for stage in STAGES:
            assert stage in out, stage
        assert main(["trace", "--from", str(path), "--export", "text"]) == 0
        out = capsys.readouterr().out
        assert out.count("serve.request") == len(slow["slowest"]) > 0

    def test_trace_from_saved_slow_exports_one_lane_per_shard(
        self, traced_run, tmp_path, capsys
    ):
        """``kamel trace --from`` on a saved ``/slow`` is the pool's Chrome
        trace: one ``tid`` per shard, each request bracketed by its queue
        wait and result transit."""
        _, _, slow = traced_run
        path = tmp_path / "flight.json"
        path.write_text(json.dumps(slow))
        assert main(["trace", "--from", str(path), "--export", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in events} == {1, 2}
        names = {e["name"] for e in events}
        assert {"serve.request", "serve.queue_wait", "serve.result_transit"} <= names

    def test_stage_histograms_in_catalog_registry(self, traced_run, sparse_feed):
        _, _, _ = traced_run
        for stage in STAGES:
            metric = get_registry().get(stage_metric(stage))
            assert metric is not None, stage
            assert metric.count == len(sparse_feed)
