"""The sharded serving pool and its fleet-wide telemetry.

End-to-end property: a 2-worker pool over a saved system produces
byte-identical outputs to the single-process streaming service on the
same feed — sharding is a deployment choice, not a semantic one. The
telemetry half (snapshot merging, Prometheus rendering, the aggregated
/metrics + /healthz endpoint) is tested at unit scale where possible so
the expensive multiprocess test runs once.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.errors import ConfigError, KamelError
from repro.io.serialize import load_kamel, save_kamel
from repro.obs.metrics import MetricsRegistry, get_registry, merge_snapshots
from repro.obs.export import render_prometheus
from repro.obs.server import ObservabilityServer
from repro.resilience.journal import trajectory_to_payload
from repro.serve import ServeConfig, ServingPool
from repro.serve.aggregate import pool_routes, render_pool_metrics
from repro.serve.protocol import result_message


@pytest.fixture(scope="module")
def saved_dir(trained_kamel, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pool_model")
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


class TestMergeSnapshots:
    def _registry(self, counter, gauge, observations):
        registry = MetricsRegistry()
        registry.counter("repro.test.ops_total").inc(counter)
        registry.gauge("repro.test.depth").set(gauge)
        histogram = registry.histogram("repro.test.seconds")
        for value in observations:
            histogram.observe(value)
        return registry.snapshot()

    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots(
            [self._registry(2, 1.0, [0.1]), self._registry(3, 4.0, [0.2])]
        )
        assert merged["repro.test.ops_total"]["value"] == 5.0
        assert merged["repro.test.depth"]["value"] == 5.0

    def test_histograms_accumulate(self):
        merged = merge_snapshots(
            [
                self._registry(0, 0, [0.1, 0.2]),
                self._registry(0, 0, [0.9, 1.8]),
            ]
        )
        data = merged["repro.test.seconds"]
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(3.0)
        assert data["min"] == pytest.approx(0.1)
        assert data["max"] == pytest.approx(1.8)
        assert data["buckets"]["+Inf"] == 4
        assert data["buckets"]["0.25"] == 2
        # Quantiles are re-derived from merged buckets: the median must
        # land between the two clusters, not inside either input's.
        assert 0.2 <= data["quantiles"]["p50"] <= 1.0

    def test_disjoint_names_union(self):
        a = MetricsRegistry()
        a.counter("repro.test.only_a_total").inc(1)
        b = MetricsRegistry()
        b.counter("repro.test.only_b_total").inc(2)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["repro.test.only_a_total"]["value"] == 1.0
        assert merged["repro.test.only_b_total"]["value"] == 2.0

    def test_type_conflict_rejected(self):
        a = MetricsRegistry()
        a.counter("repro.test.thing").inc(1)
        b = MetricsRegistry()
        b.gauge("repro.test.thing").set(1.0)
        with pytest.raises(ValueError, match="in one snapshot"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_empty_input(self):
        assert merge_snapshots([]) == {}

    def test_empty_worker_snapshot_is_identity(self):
        # A worker that died before measuring anything ships {} — merging
        # it must not perturb the others' values.
        alone = merge_snapshots([self._registry(2, 1.0, [0.1])])
        with_empty = merge_snapshots([{}, self._registry(2, 1.0, [0.1]), {}])
        assert with_empty == alone

    def test_disjoint_histogram_buckets_union(self):
        # Two workers built the same histogram with different bucket
        # edges (a config skew mid-rollout): the merge must keep the
        # union of edges with each side's counts on its own edges.
        a = MetricsRegistry()
        a.histogram("repro.test.skewed_seconds", buckets=(0.1, 1.0)).observe(0.05)
        b = MetricsRegistry()
        b.histogram("repro.test.skewed_seconds", buckets=(0.5, 2.0)).observe(1.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        data = merged["repro.test.skewed_seconds"]
        assert data["count"] == 2
        assert data["sum"] == pytest.approx(1.55)
        buckets = data["buckets"]
        assert {"0.1", "0.5", "1.0", "2.0", "+Inf"} <= set(buckets)
        assert buckets["+Inf"] == 2
        assert buckets["0.1"] == 1  # only a's observation is under 0.1

    def test_counter_missing_from_one_worker(self):
        # A counter only some workers ever incremented still sums over
        # the workers that have it.
        a = MetricsRegistry()
        a.counter("repro.test.rare_total").inc(3)
        b = MetricsRegistry()
        b.counter("repro.test.other_total").inc(1)
        c = MetricsRegistry()
        c.counter("repro.test.rare_total").inc(4)
        merged = merge_snapshots([a.snapshot(), b.snapshot(), c.snapshot()])
        assert merged["repro.test.rare_total"]["value"] == 7.0
        assert merged["repro.test.other_total"]["value"] == 1.0


class TestRenderPrometheusSnapshot:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro.test.ops_total").inc(7)
        registry.histogram("repro.test.seconds").observe(0.05)
        return registry.snapshot()

    def test_renders_families(self):
        body = render_prometheus(self._snapshot())
        assert "repro_test_ops_total 7" in body
        assert "# TYPE repro_test_ops_total counter" in body
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in body
        assert "repro_test_seconds_count 1" in body
        assert body.endswith("\n")

    def test_exclude(self):
        body = render_prometheus(
            self._snapshot(), exclude=("repro.test.ops_total",)
        )
        assert "ops_total" not in body
        assert "repro_test_seconds_count" in body


class TestServingPool:
    @pytest.fixture(scope="class")
    def pooled(self, saved_dir, sparse_feed, tmp_path_factory):
        """One 2-worker run shared by every assertion in this class."""
        get_registry().reset(prefix="repro.serve")
        journal_dir = tmp_path_factory.mktemp("pool_journal")
        config = ServeConfig(
            workers=2,
            journal_dir=str(journal_dir),
            metrics_port=0,
            metrics_every=3,
        )
        pool = ServingPool(str(saved_dir), config)
        with pool:
            url = pool.metrics_server.url
            healthz_live = json.loads(
                urllib.request.urlopen(url + "/healthz", timeout=5).read()
            )
            results = pool.process_all(sparse_feed, timeout=120)
            metrics_live = (
                urllib.request.urlopen(url + "/metrics", timeout=5).read().decode()
            )
        return pool, results, healthz_live, metrics_live

    def test_matches_single_process_bit_for_bit(self, pooled, baseline):
        _, results, _, _ = pooled
        assert set(results) == set(baseline)
        for traj_id, expected in baseline.items():
            assert results[traj_id]["trips"] == expected

    def test_accounting(self, pooled, sparse_feed):
        pool, results, _, _ = pooled
        assert pool.stats.submitted == len(sparse_feed)
        assert pool.stats.completed == len(sparse_feed)
        assert pool.stats.lost == 0
        assert pool.stats.duplicates == 0
        assert pool.stats.worker_deaths == 0
        assert sum(pool.worker_processed.values()) == len(sparse_feed)
        assert pool.stats.segments == sum(r["segments"] for r in results.values())

    def test_healthz_document(self, pooled):
        _, _, healthz, _ = pooled
        assert healthz["status"] == "ok"
        assert len(healthz["workers"]) == 2
        assert all(w["alive"] for w in healthz["workers"])

    def test_live_metrics_exposition(self, pooled):
        _, _, _, metrics = pooled
        assert "repro_serve_submitted_total" in metrics

    def test_merged_snapshot_includes_worker_registries(self, pooled, sparse_feed):
        pool, _, _, _ = pooled
        merged = pool.merged_snapshot()
        # The parent counted submissions; the workers counted processing.
        assert merged["repro.serve.submitted_total"]["value"] == len(sparse_feed)
        assert merged["repro.serve.worker.trajectories_total"]["value"] == len(
            sparse_feed
        )
        assert merged["repro.serve.model_lru.misses_total"]["value"] >= 1

    def test_rendered_pool_metrics_have_per_worker_labels(self, pooled):
        pool, _, _, _ = pooled
        body = render_pool_metrics(pool)
        # The per-worker counter appears only in labeled form.
        assert 'repro_serve_worker_trajectories_total{worker="0"}' in body
        assert 'repro_serve_worker_trajectories_total{worker="1"}' in body
        assert "\nrepro_serve_worker_trajectories_total " not in body

    def test_lru_stats_collected_at_shutdown(self, pooled):
        pool, _, _, _ = pooled
        assert set(pool.worker_lru) == {0, 1}
        for stats in pool.worker_lru.values():
            assert stats["misses"] >= 1
            assert stats["resident"] <= stats["capacity"]

    def test_submit_before_start_rejected(self, saved_dir, sparse_feed):
        pool = ServingPool(str(saved_dir), ServeConfig(workers=1))
        with pytest.raises(ConfigError, match="not started"):
            pool.submit(sparse_feed[0])

    def test_refuses_a_model_directory_load_kamel_refuses(self, saved_dir, tmp_path):
        """The parent reads ``config.json`` through the same version
        check ``load_kamel`` makes, so a directory no worker could load
        fails in the constructor, before any process starts."""
        with pytest.raises(KamelError, match="no saved system"):
            ServingPool(str(tmp_path / "missing"))
        payload = json.loads((saved_dir / "config.json").read_text())
        payload["version"] = 4
        (tmp_path / "config.json").write_text(json.dumps(payload))
        with pytest.raises(KamelError, match="version 4"):
            ServingPool(str(tmp_path))

    def test_worker_count_validated(self):
        with pytest.raises(ConfigError, match="workers"):
            ServeConfig(workers=0)

    def test_lru_capacity_validated(self):
        """A zero-capacity LRU would kill every worker on its first model."""
        with pytest.raises(ConfigError, match="lru_capacity"):
            ServeConfig(lru_capacity=0)


class TestPoolMetricsServerStub:
    class _StubPool:
        def __init__(self):
            registry = MetricsRegistry()
            registry.counter("repro.serve.results_total").inc(4)
            self._snapshot = registry.snapshot()
            self.worker_processed = {0: 3, 1: 1}

        def merged_snapshot(self):
            return self._snapshot

        def healthz(self):
            return {"status": "ok", "workers": []}

    def test_routes(self):
        with ObservabilityServer(routes=pool_routes(self._StubPool())) as server:
            body = (
                urllib.request.urlopen(server.url + "/metrics", timeout=5)
                .read()
                .decode()
            )
            assert "repro_serve_results_total 4" in body
            assert 'repro_serve_worker_trajectories_total{worker="0"} 3' in body
            health = json.loads(
                urllib.request.urlopen(server.url + "/healthz", timeout=5).read()
            )
            assert health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/nope", timeout=5)
            # The 404 names the table actually being served, not the
            # single-process default.
            assert excinfo.value.code == 404
            assert (
                excinfo.value.read().decode()
                == "not found: try /metrics, /healthz, /slow\n"
            )

    def test_lifecycle(self):
        server = ObservabilityServer(routes=pool_routes(self._StubPool()))
        assert not server.running
        server.start()
        assert server.running and server.port > 0
        server.stop()
        assert not server.running


class TestWriteOffAccounting:
    """The pool's bookkeeping for written-off work, on a pool whose
    workers never start: submissions, results and the write-off go
    through ``pool.ledger``; the books are read off the pool."""

    @pytest.fixture
    def make_pool(self, saved_dir):
        return lambda **config: ServingPool(
            str(saved_dir), ServeConfig(workers=1, **config)
        )

    @pytest.fixture
    def pool(self, make_pool):
        return make_pool()

    @staticmethod
    def _accounted(pool):
        s = pool.stats
        return (s.completed + s.shed + s.expired + s.declared_lost
                + pool.outstanding)

    @staticmethod
    def _result(traj_id, **overrides):
        return result_message(0, 1, traj_id, 0.0, trace_id="trace", **overrides)

    def test_straggler_after_write_off_counts_once(self, pool):
        for i in range(3):
            pool.ledger.submit(f"t{i}", 0)
        pool.ledger.deliver(self._result("t0"))
        pool.ledger.write_off(0)
        assert pool.stats.declared_lost == 2
        assert self._accounted(pool) == pool.stats.submitted == 3

        pool.ledger.deliver(self._result("t1"))
        assert (pool.stats.completed, pool.stats.declared_lost) == (2, 1)
        assert self._accounted(pool) == pool.stats.submitted

        pool.ledger.deliver(self._result("t1"))
        assert pool.stats.duplicates == 1
        assert (pool.stats.completed, pool.stats.declared_lost) == (2, 1)
        assert self._accounted(pool) == pool.stats.submitted
        assert pool.stats.lost == 1

        pool.ledger.deliver(self._result("t2", expired=True))
        assert (pool.stats.expired, pool.stats.declared_lost) == (1, 0)
        assert self._accounted(pool) == pool.stats.submitted
        assert pool.stats.lost == 0

    def test_resubmit_while_outstanding_is_refused(self, make_pool):
        """A second submit of an in-flight id once leaked a unit of shard
        depth: after both results, depth 1 with nothing in flight, ``lost``
        1, and a bounded shard shedding its next newcomer."""
        bounded = make_pool(max_queue_depth=2)
        assert bounded.ledger.submit("a", 0)
        with pytest.raises(ConfigError, match="already outstanding"):
            bounded.ledger.submit("a", 0)
        assert (bounded.stats.submitted, bounded.outstanding) == (1, 1)
        bounded.ledger.deliver(self._result("a"))
        bounded.ledger.deliver(self._result("a"))
        assert bounded.ledger.depths == [0]
        assert (bounded.stats.completed, bounded.stats.duplicates) == (1, 1)
        assert bounded.stats.lost == 0
        assert bounded.ledger.submit("b", 0) and bounded.ledger.submit("c", 0)
        assert bounded.stats.shed == 0
        assert self._accounted(bounded) == bounded.stats.submitted == 3

    def test_retry_after_shed_is_served(self, make_pool):
        """Retrying a shed request (what its ``OverloadError`` invites)
        once had its served result thrown away as a duplicate."""
        bounded = make_pool(max_queue_depth=1)
        assert bounded.ledger.submit("a", 0)
        assert bounded.ledger.submit("b", 0) is None  # shed
        assert bounded.results["b"]["error_type"] == "OverloadError"
        bounded.ledger.deliver(self._result("a"))
        assert bounded.ledger.submit("b", 0)
        bounded.ledger.deliver(self._result("b"))
        assert bounded.results["b"]["error"] is None
        assert "shed" not in bounded.results["b"]
        s = bounded.stats
        books = (s.submitted, s.completed, s.shed, s.duplicates, s.lost)
        assert books == (3, 2, 1, 0, 0)
        assert self._accounted(bounded) == s.submitted

    def test_result_for_an_id_never_submitted_is_refused(self, pool):
        """A revived worker replaying another lifetime's journal once had
        its stale result counted ``completed``, hiding a request that was
        really outstanding behind ``lost == 0``."""
        pool.ledger.submit("a", 0)
        pool.ledger.submit("b", 0)
        pool.ledger.deliver(self._result("a"))
        pool.ledger.deliver(self._result("stale"))
        s = pool.stats
        assert (s.submitted, s.completed, pool.outstanding, s.lost) == (2, 1, 1, 1)
        assert s.unsolicited == 1
        assert "stale" not in pool.results
        assert self._accounted(pool) == s.submitted
        pool.ledger.deliver(self._result("b"))
        assert (s.completed, s.lost) == (2, 0)
