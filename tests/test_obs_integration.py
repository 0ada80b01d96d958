"""End-to-end observability: a fit + impute run emits the expected
counters, histograms, spans, and warning logs."""

import ast
import logging
import pathlib
import re

import pytest

from repro import Kamel, KamelConfig
from repro.obs import (
    METRIC_CATALOG,
    MetricsRegistry,
    clear_spans,
    disable_tracing,
    enable_tracing,
    finished_spans,
    set_registry,
)


@pytest.fixture(scope="module")
def obs_run(small_dataset):
    """One fit + impute run with a fresh registry and tracing enabled."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    enable_tracing()
    clear_spans()
    try:
        train, test = small_dataset.split(seed=1)
        system = Kamel(KamelConfig(max_model_calls=600)).fit(train)
        results = system.impute_batch([t.sparsify(500.0) for t in test[:4]])
        spans = finished_spans()
    finally:
        disable_tracing()
        clear_spans()
        set_registry(previous)
    return registry, results, spans


@pytest.fixture(scope="module")
def run_registry(obs_run):
    registry, results, _ = obs_run
    return registry, results


EXPECTED_COUNTERS = (
    "repro.kamel.trajectories_total",
    "repro.kamel.segments_total",
    "repro.kamel.segments_imputed_total",
    "repro.kamel.training_trajectories_total",
    "repro.kamel.model_calls_total",
    "repro.imputation.segments_total",
    "repro.imputation.beam.segments_total",
    "repro.constraints.candidates_in_total",
    "repro.constraints.candidates_out_total",
    "repro.detokenization.tokens_total",
    "repro.partitioning.lookup_total",
    "repro.partitioning.model_builds_total",
)

EXPECTED_HISTOGRAMS = (
    "repro.kamel.fit_seconds",
    "repro.kamel.impute_seconds",
    "repro.imputation.calls_per_segment",
    "repro.partitioning.model_build_seconds",
)


class TestMetricsEmission:
    def test_expected_counters_present_and_positive(self, run_registry):
        registry, _ = run_registry
        for name in EXPECTED_COUNTERS:
            metric = registry.get(name)
            assert metric is not None, f"{name} never emitted"
            assert metric.value > 0, f"{name} emitted but zero"

    def test_expected_histograms_observed(self, run_registry):
        registry, _ = run_registry
        for name in EXPECTED_HISTOGRAMS:
            metric = registry.get(name)
            assert metric is not None, f"{name} never emitted"
            assert metric.count > 0

    def test_every_emitted_metric_is_in_the_catalog(self, run_registry):
        registry, _ = run_registry
        unknown = [n for n in registry.names() if n not in METRIC_CATALOG]
        assert not unknown, f"metrics missing from METRIC_CATALOG: {unknown}"

    def test_registry_agrees_with_results(self, run_registry):
        registry, results = run_registry
        assert registry.get("repro.kamel.trajectories_total").value == len(results)
        assert registry.get("repro.kamel.segments_imputed_total").value == sum(
            r.num_segments for r in results
        )
        assert registry.get("repro.kamel.model_calls_total").value == sum(
            r.total_model_calls for r in results
        )
        imputed = sum(r.num_segments for r in results)
        failed = sum(r.num_failed for r in results)
        rate = registry.get("repro.kamel.failure_rate")
        assert rate is not None
        assert rate.value == pytest.approx(failed / imputed if imputed else 0.0)

    def test_constraint_filter_balance(self, run_registry):
        """candidates_in == candidates_out + every rejection bucket."""
        registry, _ = run_registry
        total_in = registry.get("repro.constraints.candidates_in_total").value
        total_out = registry.get("repro.constraints.candidates_out_total").value
        rejected = sum(
            registry.get(name).value
            for name in registry.names()
            if name.startswith("repro.constraints.rejected.")
        )
        assert total_in == total_out + rejected

    def test_pipeline_metrics_cover_every_module(self, run_registry):
        registry, _ = run_registry
        prefixes = {name.split(".")[1] for name in registry.names()}
        assert {
            "kamel", "imputation", "partitioning", "constraints", "detokenization",
        } <= prefixes


class TestSpans:
    def test_impute_produces_the_span_hierarchy(self, obs_run):
        _, results, spans = obs_run
        roots = [s for s in spans if s.name == "impute.trajectory"]
        assert len(roots) == len(results)
        root = roots[0]
        segments = root.find("impute.segment")
        assert segments, "no impute.segment spans under the trajectory"
        assert root.attributes["segments"] == len(segments)
        for seg in segments:
            assert seg.attributes["strategy"] == "beam"
            assert "model_calls" in seg.attributes

    def test_fit_span_carries_sizing_attributes(self, obs_run, small_split):
        _, _, spans = obs_run
        train, _ = small_split
        fit_roots = [s for s in spans if s.name == "kamel.fit"]
        assert len(fit_roots) == 1
        assert fit_roots[0].attributes["trajectories"] == len(train)
        assert fit_roots[0].find("repository.build_model")


class TestFallbackWarning:
    def test_linear_fallback_logs_a_warning(self, trained_kamel, caplog):
        """A segment no model covers must warn once (the paper's failure)."""
        from repro.geo import Point, Trajectory

        # Far outside the trained city: every lookup misses.
        far = Trajectory(
            "offmap",
            [Point(90_000.0, 90_000.0, 0.0), Point(95_000.0, 95_000.0, 600.0)],
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.kamel"):
            result = trained_kamel.impute(far)
        assert result.num_failed == 1
        fallback_records = [
            r for r in caplog.records if "fell back" in r.getMessage()
        ]
        assert len(fallback_records) == 1
        assert fallback_records[0].data["segment"] == 0


class TestNoDeadTelemetry:
    """The other direction of the catalog check: a row, a documented
    family or a rolling monitor that nothing in ``src/repro`` can feed."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent
    SRC = ROOT / "src" / "repro"

    def _sources(self, *excluded):
        return [
            path.read_text()
            for path in sorted(self.SRC.rglob("*.py"))
            if path.relative_to(self.SRC).as_posix() not in excluded
        ]

    def test_every_catalog_entry_is_spelled_by_some_emitter(self):
        """A name counts as producible when a string literal outside the
        catalog module equals it, or an f-string that starts ``repro.``
        matches it with one identifier per placeholder."""
        literals, patterns = set(), set()
        for source in self._sources("obs/instrument.py"):
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
                elif isinstance(node, ast.JoinedStr):
                    head = node.values[0]
                    if isinstance(head, ast.Constant) and head.value.startswith("repro."):
                        patterns.add(
                            "".join(
                                re.escape(part.value)
                                if isinstance(part, ast.Constant)
                                else r"\w+"
                                for part in node.values
                            )
                        )
        dead = [
            name
            for name in METRIC_CATALOG
            if name not in literals
            and not any(re.fullmatch(pattern, name) for pattern in patterns)
        ]
        assert not dead, f"catalogued but nothing under src/repro emits: {dead}"

    def test_every_catalog_family_is_in_the_docs_table(self):
        doc = (self.ROOT / "docs" / "observability.md").read_text()
        documented = set(re.findall(r"^\| `(repro\.\w+)\.\*` \|", doc, flags=re.MULTILINE))
        families = {".".join(name.split(".")[:2]) for name in METRIC_CATALOG}
        assert families == documented

    def test_every_rolling_monitor_has_a_feeder(self):
        from repro.obs import MonitorHub

        source = "\n".join(self._sources("obs/monitor.py"))
        unfed = [
            name
            for name in MonitorHub().all()
            if not re.search(rf"\.{name}\.(?:observe|extend)\b", source)
        ]
        assert not unfed, f"MonitorHub monitors nothing feeds: {unfed}"


class TestFallbackReasons:
    def test_every_reason_has_a_catalog_entry(self):
        from repro.resilience.ladder import FALLBACK_REASONS

        catalogued = {
            name.removeprefix("repro.kamel.fallback.").removesuffix("_total")
            for name in METRIC_CATALOG
            if name.startswith("repro.kamel.fallback.")
        }
        assert catalogued == set(FALLBACK_REASONS)

    def test_the_facade_records_no_reason_outside_the_tuple(self):
        """``Kamel._impute_segment`` spells its reasons as literals."""
        import inspect
        import re

        from repro.resilience.ladder import FALLBACK_REASONS

        source = inspect.getsource(Kamel._impute_segment)
        literals = set(re.findall(r'(?:reason = (?:reason or )?|linear\()"(\w+)"', source))
        assert literals == set(FALLBACK_REASONS)

    def test_a_brownout_capped_segment_is_catalogued(self, small_split):
        """Every rung above ``linear`` capped or model-less: the segment
        ends ``linear("brownout")``, a reason the catalog used to miss."""
        train, test = small_split
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            system = Kamel(
                KamelConfig(max_model_calls=600, enable_fallback_model=False)
            ).fit(train)
            result = system.impute(test[0].sparsify(500.0), max_rung="counting")
        finally:
            set_registry(previous)
        assert result.num_failed == result.num_segments > 0
        assert {s.fallback_reason for s in result.segments} <= {
            "brownout", "endpoint_unseen"
        }
        assert registry.get("repro.kamel.fallback.brownout_total").value > 0
        unknown = [n for n in registry.names() if n not in METRIC_CATALOG]
        assert not unknown, f"metrics missing from METRIC_CATALOG: {unknown}"
